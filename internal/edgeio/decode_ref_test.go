package edgeio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// refDecodeBlock is the plain BSG1 block decoder, one binary.Uvarint
// call per varint value: the reference FuzzBinarySource and
// BenchmarkDecodeBlock hold decodeBlock to. It decodes one raw block
// (header + payload, as laid out on disk) into the caller's edge and
// weight buffers, which must have capacity for the block's edge count.
// weights is ignored for unweighted files and may be nil to skip the
// weight column. Errors carry the file offset.
func (m *binaryMeta) refDecodeBlock(i int, raw []byte, edges []Edge, weights []float64) ([]Edge, []float64, error) {
	ref := m.index[i]
	if len(raw) < binaryBlockHdr {
		return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: %d bytes, need %d for the header", m.path, i, ref.off, len(raw), binaryBlockHdr)
	}
	count := int(binary.LittleEndian.Uint32(raw[0:4]))
	payloadLen := int(binary.LittleEndian.Uint32(raw[4:8]))
	enc := raw[8]
	if count != ref.count {
		return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: header says %d edges, index says %d", m.path, i, ref.off, count, ref.count)
	}
	payload := raw[binaryBlockHdr:]
	if payloadLen != len(payload) {
		return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: payload length %d does not match the block extent %d", m.path, i, ref.off, payloadLen, len(payload))
	}
	edges = edges[:count]
	weightBytes := 0
	if m.weighted {
		weightBytes = count * 8
	}
	switch enc {
	case blockFixed:
		if len(payload) != count*8+weightBytes {
			return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: fixed payload of %d bytes, want %d", m.path, i, ref.off, len(payload), count*8+weightBytes)
		}
		src := payload[:count*4]
		dst := payload[count*4 : count*8]
		for j := 0; j < count; j++ {
			edges[j] = Edge{
				U: int32(binary.LittleEndian.Uint32(src[j*4:])),
				V: int32(binary.LittleEndian.Uint32(dst[j*4:])),
			}
		}
		payload = payload[count*8:]
	case blockVarint:
		cols := payload
		if weightBytes > 0 {
			if len(cols) < weightBytes {
				return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: varint payload of %d bytes, need %d for the weight column", m.path, i, ref.off, len(cols), weightBytes)
			}
			cols = cols[:len(cols)-weightBytes]
		}
		pos := 0
		prev := int64(0)
		for j := 0; j < count; j++ {
			d, n := binary.Uvarint(cols[pos:])
			if n <= 0 {
				return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: bad src varint at payload byte %d", m.path, i, ref.off, pos)
			}
			pos += n
			if j == 0 {
				prev = int64(d)
			} else {
				prev += int64(d)
			}
			if prev < 0 || prev > math.MaxInt32 {
				return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: src id %d out of int32 range", m.path, i, ref.off, prev)
			}
			edges[j].U = int32(prev)
		}
		for j := 0; j < count; j++ {
			d, n := binary.Uvarint(cols[pos:])
			if n <= 0 {
				return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: bad dst varint at payload byte %d", m.path, i, ref.off, pos)
			}
			pos += n
			if d > math.MaxUint32 {
				return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: dst id %d out of range", m.path, i, ref.off, d)
			}
			edges[j].V = int32(uint32(d))
		}
		if pos != len(cols) {
			return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: %d trailing payload bytes", m.path, i, ref.off, len(cols)-pos)
		}
		payload = payload[len(cols):]
	default:
		return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: unknown encoding %d", m.path, i, ref.off, enc)
	}
	if m.weighted && weights != nil {
		weights = weights[:count]
		for j := 0; j < count; j++ {
			weights[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[j*8:]))
		}
	}
	return edges, weights, nil
}

// randomVarintBlock assembles a raw delta-varint block of count edges
// whose values stress both decoders: one-byte and multi-byte src
// deltas, deltas that wrap to step a src back, ids near the int32
// limit, and dsts of every length up to 5 bytes, any of them padded to
// a non-canonical encoding of up to 10 bytes. A third of the blocks
// then get one fault: a src or dst out of range, a malformed varint,
// trailing bytes, or a cut column.
func randomVarintBlock(rng *rand.Rand, count int, weighted bool) []byte {
	uv := func(b []byte, v uint64) []byte {
		n := len(b)
		b = binary.AppendUvarint(b, v)
		if rng.IntN(20) == 0 && len(b)-n < 8 {
			b[len(b)-1] |= 0x80
			for pad := rng.IntN(9 - (len(b) - n)); pad > 0; pad-- {
				b = append(b, 0x80)
			}
			b = append(b, 0)
		}
		return b
	}
	fault := -1
	if rng.IntN(3) == 0 {
		fault = rng.IntN(6)
	}
	at := rng.IntN(count)
	src := uint64(rng.IntN(1000))
	if rng.IntN(8) == 0 {
		src = math.MaxInt32 - uint64(rng.IntN(3*count))
	}
	cols := uv(nil, src)
	for j := 1; j < count; j++ {
		d := uint64(rng.IntN(4))
		switch rng.IntN(30) {
		case 0:
			d = 128 + uint64(rng.IntN(1<<14))
		case 1:
			d = uint64(rng.IntN(128))
		case 2:
			d = -uint64(rng.IntN(int(min(src, 3)) + 1)) // step back, wrapping
		}
		if src+d > math.MaxInt32 {
			d = 0
		}
		if fault == 0 && j == at {
			d = math.MaxInt32 + 1 - src + uint64(rng.IntN(1000)) // out of range
		}
		src += d
		cols = uv(cols, d)
	}
	for j := 0; j < count; j++ {
		v := uint64(rng.Int64N(1 << (7 * (1 + rng.IntN(4)))))
		if rng.IntN(10) == 0 {
			v = uint64(rng.Int64N(math.MaxUint32 + 1))
		}
		if fault == 1 && j == at {
			v = math.MaxUint32 + 1 + uint64(rng.IntN(1000))
		}
		cols = uv(cols, v)
	}
	switch fault {
	case 2:
		cols = append(cols, byte(rng.IntN(256)))
	case 3:
		cols = cols[:rng.IntN(len(cols))]
	case 4:
		cols[rng.IntN(len(cols))] |= 0x80
	case 5:
		k := rng.IntN(len(cols))
		cols = append(cols[:k], append(bytes.Repeat([]byte{0xff}, 11), cols[k:]...)...)
	}
	if weighted {
		for j := 0; j < count; j++ {
			cols = binary.LittleEndian.AppendUint64(cols, math.Float64bits(rng.Float64()))
		}
	}
	raw := binary.LittleEndian.AppendUint32(nil, uint32(count))
	raw = binary.LittleEndian.AppendUint32(raw, uint32(len(cols)))
	raw = append(raw, blockVarint)
	return append(raw, cols...)
}

// TestDecodeBlockMatchesReference holds decodeBlock to the reference
// decoder on random delta-varint blocks: the same edges and weights,
// or the same error text.
func TestDecodeBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	decoded, rejected := 0, 0
	for trial := 0; trial < 5000; trial++ {
		count := 1 + rng.IntN(64)
		if trial%10 == 0 {
			count = 1 + rng.IntN(3000)
		}
		weighted := rng.IntN(3) == 0
		raw := randomVarintBlock(rng, count, weighted)
		m := &binaryMeta{path: "rand.bsg", weighted: weighted, index: []blockRef{{off: binaryHeaderSize, count: count}}, maxCount: count}
		var wantW, gotW []float64
		if weighted {
			wantW, gotW = make([]float64, count), make([]float64, count)
		}
		want := newBlockResult(m.refDecodeBlock(0, raw, make([]Edge, count), wantW))
		got := newBlockResult(m.decodeBlock(0, raw, make([]Edge, count), gotW))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (count %d, weighted %v): decodeBlock differs from the reference:\ngot  %.200v\nwant %.200v", trial, count, weighted, got, want)
		}
		if want.err == "" {
			decoded++
		} else {
			rejected++
		}
	}
	// Both outcomes must be common, or the comparison proves little.
	if decoded < 2000 || rejected < 1000 {
		t.Fatalf("%d blocks decoded and %d rejected; want at least 2000 and 1000", decoded, rejected)
	}
}
