package pushdown

import (
	"math/rand"
	"testing"

	"scoop/internal/detmanifest"
)

func sampleTask() *Task {
	return &Task{
		Filter:  "csv",
		Schema:  "vid string, date string, index double, city string, state string",
		Columns: []string{"vid", "city"},
		Predicates: []Predicate{
			{Column: "state", Op: OpLike, Value: "U%"},
			{Column: "index", Op: OpGt, Value: "2.0", Numeric: true},
			{Column: "city", Op: OpIn, Values: []string{"Kyiv", "Lviv", "Odesa"}},
		},
		Options: map[string]string{"delimiter": ",", "header": "false"},
	}
}

// TestChainHashCommutativeConjuncts: a task's predicates are an AND — any
// ordering is the same selection, so the cache key must not fragment on it.
// IN-value order and option-map order are equally meaningless. Exercised
// over seeded random permutations.
func TestChainHashCommutativeConjuncts(t *testing.T) {
	base := sampleTask()
	want := ChainHash([]*Task{base})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		perm := sampleTask()
		rng.Shuffle(len(perm.Predicates), func(a, b int) {
			perm.Predicates[a], perm.Predicates[b] = perm.Predicates[b], perm.Predicates[a]
		})
		for _, p := range perm.Predicates {
			if p.Op == OpIn {
				rng.Shuffle(len(p.Values), func(a, b int) {
					p.Values[a], p.Values[b] = p.Values[b], p.Values[a]
				})
			}
		}
		if got := ChainHash([]*Task{perm}); got != want {
			t.Fatalf("permutation %d changed the key: %s != %s\n%+v", i, got, want, perm)
		}
	}
}

// TestChainHashSemanticDefaults: the canonical form must identify the
// spellings that mean the same execution.
func TestChainHashSemanticDefaults(t *testing.T) {
	implicit := &Task{Filter: "csv", Schema: "a string"}
	explicit := &Task{Filter: "csv", Schema: "a string", Stage: StageObject}
	if ChainHash([]*Task{implicit}) != ChainHash([]*Task{explicit}) {
		t.Error("empty stage and StageObject must hash identically")
	}
	dup := &Task{Filter: "csv", Schema: "a string", Predicates: []Predicate{
		{Column: "a", Op: OpEq, Value: "x"},
		{Column: "a", Op: OpEq, Value: "x"},
	}}
	single := &Task{Filter: "csv", Schema: "a string", Predicates: []Predicate{
		{Column: "a", Op: OpEq, Value: "x"},
	}}
	if ChainHash([]*Task{dup}) != ChainHash([]*Task{single}) {
		t.Error("duplicate conjuncts must collapse")
	}
}

// TestChainHashDistinguishesSemantics: things that change result bytes must
// change the key.
func TestChainHashDistinguishesSemantics(t *testing.T) {
	base := sampleTask()
	seen := map[string]string{ChainHash([]*Task{base}): "base"}
	variants := map[string]*Task{}

	v := sampleTask()
	v.Columns = []string{"city", "vid"} // projection order IS output order
	variants["column order"] = v

	v = sampleTask()
	v.Predicates[0].Value = "N%"
	variants["predicate literal"] = v

	v = sampleTask()
	v.Predicates[1].Numeric = false // string vs numeric comparison differ
	variants["numeric flag"] = v

	v = sampleTask()
	v.Predicates[2].Values = []string{"Kyiv", "Lviv"}
	variants["IN membership"] = v

	v = sampleTask()
	v.Stage = StageProxy
	variants["stage"] = v

	v = sampleTask()
	v.Options["delimiter"] = ";"
	variants["option value"] = v

	v = sampleTask()
	v.Filter = "grep"
	variants["filter name"] = v

	for name, task := range variants {
		h := ChainHash([]*Task{task})
		if prev, dup := seen[h]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[h] = name
	}
	// Chain composition order matters (stages pipe into each other).
	a := &Task{Filter: "csv", Schema: "a string"}
	b := &Task{Filter: "compress"}
	if ChainHash([]*Task{a, b}) == ChainHash([]*Task{b, a}) {
		t.Error("chain order must be significant")
	}
}

// TestCacheableChainDetmanifestGate: only chains whose every filter carries
// a machine-checked determinism proof may be cached.
func TestCacheableChainDetmanifestGate(t *testing.T) {
	proven := []*Task{{Filter: "csv"}, {Filter: "compress"}}
	if !CacheableChain(proven, detmanifest.IsProven) {
		t.Error("fully proven chain must be cacheable")
	}
	mixed := []*Task{{Filter: "csv"}, {Filter: "tenant-uploaded-mystery"}}
	if CacheableChain(mixed, detmanifest.IsProven) {
		t.Error("one unproven filter must make the whole chain uncacheable")
	}
	if CacheableChain(nil, detmanifest.IsProven) {
		t.Error("empty chain must not be cacheable")
	}
	if CacheableChain(proven, nil) {
		t.Error("nil oracle proves nothing")
	}
}

// FuzzChainHashStability: hashing must be stable across an encode/decode
// round trip — the wire form a dashboard client sends must key identically
// to the re-encoded form a proxy might construct.
func FuzzChainHashStability(f *testing.F) {
	seedChains := [][]*Task{
		{sampleTask()},
		{{Filter: "grep", Options: map[string]string{"pattern": "UKR"}}},
		{{Filter: "csv", Schema: "a string, b double", Columns: []string{"b"}},
			{Filter: "compress", Stage: StageProxy}},
		{{Filter: "jsonl", Predicates: []Predicate{{Column: "a", Op: OpIsNull}}}},
	}
	for _, chain := range seedChains {
		enc, err := EncodeChain(chain)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, enc string) {
		chain, err := DecodeChain(enc)
		if err != nil || len(chain) == 0 {
			t.Skip()
		}
		h1 := ChainHash(chain)
		re, err := EncodeChain(chain)
		if err != nil {
			t.Skip() // a decoded chain that cannot re-encode is out of scope
		}
		chain2, err := DecodeChain(re)
		if err != nil {
			t.Fatalf("re-encoded chain failed to decode: %v", err)
		}
		h2 := ChainHash(chain2)
		if h1 != h2 {
			t.Fatalf("hash unstable across round trip: %s != %s (enc %q)", h1, h2, enc)
		}
	})
}
