package main

import "testing"

// TestExample runs the example end to end. A log.Fatal in main exits
// the test binary with a non-zero status, which fails the package.
func TestExample(t *testing.T) { main() }
