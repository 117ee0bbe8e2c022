package pushdown

import "testing"

// BenchmarkLikeMatch times the storage-side LIKE matcher on a dense input.
func BenchmarkLikeMatch(b *testing.B) {
	p := Predicate{Column: "date", Op: OpLike, Value: "2015-01-%"}
	s := []byte("2015-01-17 10:20:00")
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.MatchesBytes(s, false) {
			b.Fatal("no match")
		}
	}
}
