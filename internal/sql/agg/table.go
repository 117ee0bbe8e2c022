package agg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/bits"
	"strconv"

	"scoop/internal/csvio"
	"scoop/internal/sql/types"
)

// Table is the module's one group table: the groups of an aggregation, each
// with its key, its first-row values and its accumulators, numbered 0, 1, ...
// in the order they first appear, which is the order of the output. The csv
// filter folds the records of a split it keeps into one at the store
// (FoldRecord, WriteRecords); exec.Partial folds rows, or merges the store's
// partial records, into one at the compute side.
//
// The index is open addressing over group numbers, and each group's hash is
// kept, so growing the index re-hashes no key. Keys lie back to back in one
// byte arena; first-row values and accumulators lie in pages that a group
// never leaves, so that no growth copies them either.
type Table struct {
	kinds  []Kind
	slots  []uint32 // group number + 1 per slot; 0 is free
	hashes []uint32 // per group
	ends   []uint32 // per group: the end of its key in keys
	keys   []byte
	firsts pages[types.Value]
	accs   pages[Acc]
	key    []byte // GroupCells' and FoldRecord's key scratch
	// WriteRecords' scratch: a record's cells, and the text and ends of
	// those it renders.
	cells    [][]byte
	text     []byte
	textEnds []int
}

// NewTable returns an empty table whose groups hold firsts first-row values
// and one accumulator of each of kinds.
func NewTable(firsts int, kinds []Kind) *Table {
	return &Table{kinds: kinds, firsts: pages[types.Value]{n: firsts}, accs: pages[Acc]{n: len(kinds)}}
}

// Len is the number of groups.
func (t *Table) Len() int { return len(t.hashes) }

// Key is group g's key.
func (t *Table) Key(g int) []byte {
	start := uint32(0)
	if g > 0 {
		start = t.ends[g-1]
	}
	return t.keys[start:t.ends[g]]
}

// Firsts is group g's first-row values, NULL until its opener sets them.
func (t *Table) Firsts(g int) []types.Value { return t.firsts.of(g) }

// Accs is group g's accumulators, one per kind.
func (t *Table) Accs(g int) []Acc { return t.accs.of(g) }

// Group returns the group of key, a key AppendKey built, and whether it was
// created, empty, for this call; the table keeps a copy of the key.
func (t *Table) Group(key []byte) (g int, created bool) {
	return t.group(key, hashKey(key))
}

// GroupCells is Group for a partial record whose cells open with the group's
// key values as the store writes them: an empty cell is NULL and any other
// is the text of a value, keyed as AppendKey keys that value. The store keys
// its own table by AppendKey's encoding of the values and writes each key
// cell as the text in that encoding, so these are the bytes its table keyed
// the group by, and the compute side types no key cell (DESIGN §5). The
// scratch the key is built in is the table's.
func (t *Table) GroupCells(cells [][]byte) (g int, created bool) {
	key := t.key[:0]
	for _, cell := range cells {
		if len(cell) == 0 {
			key = append(key, 0)
			continue
		}
		n := len(cell)
		key = append(key, 1, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		key = append(key, cell...)
	}
	t.key = key
	return t.Group(key)
}

// FoldRecord adds the record sc holds, a raw record of schema whose fields
// s's terms index, to its group, as exec.Partial.Fold adds the row the
// compute side's CSV scan types from it. Only the fields the terms read are
// split; a string goes into the key or a MIN or MAX as its bytes lie, a sum
// reads its number in place, and the first-row values are typed only when
// a group opens.
func (t *Table) FoldRecord(s *Spec, schema *types.Schema, sc *csvio.FieldScanner) {
	t.key = t.key[:0]
	for _, term := range s.Group {
		t.keyTerm(term, schema, sc)
	}
	g, created := t.Group(t.key)
	//scoop:cold a new group's first-row values, typed once per group
	if created {
		firsts := t.Firsts(g)
		for i, term := range s.Firsts {
			if text, ok := term.text(sc); ok {
				firsts[i] = term.value(schema, text)
			}
		}
	}
	accs := t.Accs(g)
	for i := range s.Aggs {
		s.Aggs[i].fold(&accs[i], schema, sc)
	}
}

// keyTerm appends term's value over the record sc holds to the key scratch,
// encoded as AppendKey encodes it: a string as its bytes lie in the record,
// a number typed in place and rendered.
func (t *Table) keyTerm(term Term, schema *types.Schema, sc *csvio.FieldScanner) {
	text, ok := term.text(sc)
	typ := term.typ(schema)
	var v types.Value
	if ok && typ != types.String {
		v = number(text, typ)
		ok = !v.IsNull()
	}
	if !ok {
		t.key = append(t.key, 0)
		return
	}
	t.key = append(t.key, 1, 0, 0, 0, 0)
	start := len(t.key)
	switch {
	case typ == types.String:
		t.key = append(t.key, text...)
	case v.T == types.Int:
		t.key = strconv.AppendInt(t.key, v.I, 10)
	case v.T == types.Float:
		t.key = strconv.AppendFloat(t.key, v.F, 'g', -1, 64)
	default:
		t.key = strconv.AppendBool(t.key, v.B)
	}
	n := len(t.key) - start
	t.key[start-4], t.key[start-3], t.key[start-2], t.key[start-1] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
}

func (t *Table) group(key []byte, h uint32) (int, bool) {
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; len(t.slots) > 0; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			break
		}
		if g := int(s - 1); t.hashes[g] == h && bytes.Equal(t.Key(g), key) {
			return g, false
		}
	}
	//scoop:cold a new group: once per group, not per record merged into one
	return t.open(key, h), true
}

// open adds a group for key, whose hash is h.
func (t *Table) open(key []byte, h uint32) int {
	g := len(t.hashes)
	if 2*(g+1) > len(t.slots) {
		t.grow()
	}
	t.slots[freeSlot(t.slots, h)] = uint32(g + 1)
	t.hashes = append(t.hashes, h)
	t.keys = append(t.keys, key...)
	t.ends = append(t.ends, uint32(len(t.keys)))
	t.firsts.open(g)
	t.accs.open(g)
	return g
}

// grow doubles the index, placing each group by its kept hash. The index is
// at most half full, so a probe ends soon.
func (t *Table) grow() {
	slots := make([]uint32, max(2*len(t.slots), 16))
	for g, h := range t.hashes {
		slots[freeSlot(slots, h)] = uint32(g + 1)
	}
	t.slots = slots
}

// freeSlot is the first free slot of slots from h's.
func freeSlot(slots []uint32, h uint32) uint32 {
	mask := uint32(len(slots) - 1)
	i := h & mask
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// Reset empties the table, keeping its memory.
func (t *Table) Reset() {
	clear(t.slots)
	t.hashes, t.ends, t.keys = t.hashes[:0], t.ends[:0], t.keys[:0]
}

// Merge folds o, a table of the same aggregation over the rows that follow
// t's, into t: o's new groups follow t's, in their order, and a group in both
// merges its accumulators. o must not be used afterwards.
func (t *Table) Merge(o *Table) {
	for og := range o.Len() {
		g, created := t.group(o.Key(og), o.hashes[og])
		if created {
			copy(t.Firsts(g), o.Firsts(og))
			copy(t.Accs(g), o.Accs(og))
			continue
		}
		accs, oaccs := t.Accs(g), o.Accs(og)
		for i, kind := range t.kinds {
			accs[i].Merge(kind, &oaccs[i])
		}
	}
}

// WriteRecords writes each group's partial record to w as one CSV record,
// in group order, and empties the table. A record's cells are the group's
// key values, its first-row values, then each accumulator's Width cells,
// each rendered as AppendKey renders a value, NULL as an empty cell.
func (t *Table) WriteRecords(w *bufio.Writer, delim byte) error {
	for g := range t.Len() {
		cells, text, ends := t.cells[:0], t.text[:0], t.textEnds[:0]
		for key := t.Key(g); len(key) > 0; {
			var cell []byte
			cell, key = CutKey(key)
			cells = append(cells, cell)
		}
		for _, v := range t.Firsts(g) {
			text = appendText(text, v)
			ends = append(ends, len(text))
		}
		accs := t.Accs(g)
		for i, kind := range t.kinds {
			text, ends = accs[i].appendCells(kind, text, ends)
		}
		start := 0
		for _, end := range ends {
			cells = append(cells, text[start:end])
			start = end
		}
		t.cells, t.text, t.textEnds = cells, text, ends
		if err := csvio.WriteRecord(w, cells, delim); err != nil {
			return err
		}
	}
	t.Reset()
	return nil
}

// KeyValues reads the values of groups' keys back from the text the table
// keeps of them.
type KeyValues struct {
	t     *Table
	all   string   // one copy of all the keys, made at the first Read
	cells [][2]int // the key cells' text in all; {-1, -1} for NULL
}

// KeyValues returns a reader of t's key values. Its strings are substrings
// of one copy of all the keys, so reading every group allocates once
// whatever the number of groups; they keep that copy alive. Add no group
// while reading.
func (t *Table) KeyValues() KeyValues { return KeyValues{t: t} }

// Read sets dst[i], for each i with keys[i] >= 0, to group g's key value
// keys[i], typed as typs[keys[i]]: NULL, or what types.CoerceBytes reads
// from its text, the text being the value's rendering.
func (kv *KeyValues) Read(g int, keys []int, typs []types.Type, dst []types.Value) {
	t := kv.t
	if kv.all == "" {
		kv.all = string(t.keys)
	}
	start := uint32(0)
	if g > 0 {
		start = t.ends[g-1]
	}
	cells := kv.cells[:0]
	for i := int(start); i < int(t.ends[g]); {
		if t.keys[i] == 0 {
			cells = append(cells, [2]int{-1, -1})
			i++
			continue
		}
		n := int(binary.LittleEndian.Uint32(t.keys[i+1:]))
		cells = append(cells, [2]int{i + 5, i + 5 + n})
		i += 5 + n
	}
	kv.cells = cells
	for i, k := range keys {
		switch {
		case k < 0:
		case cells[k][0] < 0:
			dst[i] = types.NullValue()
		case typs[k] == types.String:
			dst[i] = types.Str(kv.all[cells[k][0]:cells[k][1]])
		default:
			dst[i] = types.CoerceBytes(t.keys[cells[k][0]:cells[k][1]], typs[k])
		}
	}
}

// hashKey is a fixed hash of a key. A table's order is its groups' first
// appearance, so the hash decides speed only, never output.
func hashKey(key []byte) uint32 {
	h := uint64(len(key)) * 0x9e3779b97f4a7c15
	for ; len(key) >= 8; key = key[8:] {
		h = mix(h ^ (uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
			uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56))
	}
	var tail uint64
	for i, b := range key {
		tail |= uint64(b) << (8 * i)
	}
	return uint32(mix(h^tail) >> 32)
}

func mix(h uint64) uint64 {
	h = (h ^ h>>31) * 0xbf58476d1ce4e5b9
	return (h ^ h>>29) * 0x94d049bb133111eb
}

// pages holds n elements of T per group, by group number, in pages of 16,
// 16, 32, ... groups up to pageMax, then pageMax each: a group's elements
// never move, and a table of few groups allocates little.
type pages[T any] struct {
	n    int
	list [][]T
}

// pageMax is the most groups one page holds.
const pageMax = 1 << 10

// page returns the page that holds group g and g's place in it.
func page(g int) (p, i int) {
	if g >= 2*pageMax {
		return 8 + (g-2*pageMax)/pageMax, g % pageMax
	}
	p = bits.Len(uint(g) >> 4)
	if p == 0 {
		return 0, g
	}
	return p, g - 8<<p
}

// of is group g's elements.
func (pg *pages[T]) of(g int) []T {
	p, i := page(g)
	return pg.list[p][i*pg.n : (i+1)*pg.n : (i+1)*pg.n]
}

// open zeroes the elements of group g, the group after the last one opened
// since the table was made or reset, adding the page it starts.
func (pg *pages[T]) open(g int) {
	p, i := page(g)
	if p == len(pg.list) {
		size := min(max(8<<p, 16), pageMax)
		pg.list = append(pg.list, make([]T, size*pg.n))
	}
	clear(pg.list[p][i*pg.n : (i+1)*pg.n])
}
