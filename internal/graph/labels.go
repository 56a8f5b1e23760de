package graph

import "strconv"

// LabelMap records the mapping between external node labels and the
// dense internal ids produced by the parsers, numbered in first-seen
// order. It is the one interner of every loader.
//
// A label that is a canonical decimal — digits only, no sign, no
// leading zero except "0" itself, below 2^63 — is stored as that
// integer and formatted again only when Label asks for it; every other
// label is stored as its string. The two kinds never collide: "7" and
// "07" are different labels, just as they are different strings. ID and
// Lookup classify their argument the same way the loaders classify a
// field. Label, Lookup and Len never mutate the map, so they may run
// concurrently once interning is done.
type LabelMap struct {
	// labels holds, per id, the numeric label, or strLabel|i for the
	// string label names[i].
	labels []uint64
	names  []string
	// dense[x] is 1 + the id of the numeric label x, or 0 when x is not
	// interned; numeric labels at or past len(dense) live in nums. The
	// loaders size dense from their input; NewLabelMap leaves it empty.
	dense []int32
	nums  map[uint64]int32
	strs  map[string]int32
}

// strLabel marks a string label in LabelMap.labels; numeric labels
// stay below it.
const strLabel = 1 << 63

// NewLabelMap returns an empty label map.
func NewLabelMap() *LabelMap { return &LabelMap{} }

// numericLabel reports whether s is a canonical decimal label and
// returns its value. Nineteen digits cannot overflow a uint64, and the
// value must stay below strLabel.
func numericLabel[S ~string | ~[]byte](s S) (uint64, bool) {
	if len(s) == 0 || len(s) > 19 || (s[0] == '0' && len(s) > 1) {
		return 0, false
	}
	var x uint64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		x = x*10 + uint64(d)
	}
	return x, x < strLabel
}

// ID interns label and returns its dense id.
func (lm *LabelMap) ID(label string) int32 {
	if x, ok := numericLabel(label); ok {
		return lm.numID(x)
	}
	if id, ok := lm.strs[label]; ok {
		return id
	}
	return lm.addString(label)
}

// Lookup returns the id of label without interning it.
func (lm *LabelMap) Lookup(label string) (int32, bool) {
	x, ok := numericLabel(label)
	switch {
	case !ok:
		id, ok := lm.strs[label]
		return id, ok
	case x < uint64(len(lm.dense)):
		if v := lm.dense[x]; v != 0 {
			return v - 1, true
		}
		return 0, false
	default:
		id, ok := lm.nums[x]
		return id, ok
	}
}

// Label returns the external label of dense id.
func (lm *LabelMap) Label(id int32) string {
	k := lm.labels[id]
	if k&strLabel != 0 {
		return lm.names[k&^strLabel]
	}
	return strconv.FormatUint(k, 10)
}

// Len returns the number of interned labels.
func (lm *LabelMap) Len() int { return len(lm.labels) }

// keyID interns one label key of the tokenizer (see edgeTokens) whose
// string bytes, if any, sit in arena. The dense-table hit is the hot
// path of every numeric load.
func (lm *LabelMap) keyID(k uint64, arena []byte) int32 {
	if k < uint64(len(lm.dense)) {
		if v := lm.dense[k]; v != 0 {
			return v - 1
		}
	}
	return lm.keyIDSlow(k, arena)
}

func (lm *LabelMap) keyIDSlow(k uint64, arena []byte) int32 {
	if k&strLabel == 0 {
		return lm.numID(k)
	}
	b := arena[k&keyOffMask:][:k>>keyLenShift&keyLenMask]
	if id, ok := lm.strs[string(b)]; ok {
		return id
	}
	return lm.addString(string(b))
}

func (lm *LabelMap) numID(x uint64) int32 {
	if x < uint64(len(lm.dense)) {
		if v := lm.dense[x]; v != 0 {
			return v - 1
		}
		id := lm.add(x)
		lm.dense[x] = id + 1
		return id
	}
	if id, ok := lm.nums[x]; ok {
		return id
	}
	if lm.nums == nil {
		lm.nums = make(map[uint64]int32)
	}
	id := lm.add(x)
	lm.nums[x] = id
	return id
}

func (lm *LabelMap) addString(s string) int32 {
	if lm.strs == nil {
		lm.strs = make(map[string]int32)
	}
	id := lm.add(strLabel | uint64(len(lm.names)))
	lm.names = append(lm.names, s)
	lm.strs[s] = id
	return id
}

func (lm *LabelMap) add(key uint64) int32 {
	id := int32(len(lm.labels))
	lm.labels = append(lm.labels, key)
	return id
}
