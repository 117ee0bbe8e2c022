package parser

import "testing"

// showGraphHCHP is Table I's ShowGraphHCHP query (experiment.GridPocketQueries),
// the heaviest of the seven to parse. It is written out here because the
// experiment package imports this one.
const showGraphHCHP = `SELECT SUBSTRING(date, 0, 10) as sDate, vid, min(sumHC) as minHC, max(sumHC) as maxHC,
			min(sumHP) as minHP, max(sumHP) as maxHP FROM largeMeter
			WHERE state LIKE 'FRA' AND date LIKE '2015-01-%'
			GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid`

// BenchmarkSQLParse times parsing of the heaviest Table I query.
func BenchmarkSQLParse(b *testing.B) {
	b.SetBytes(int64(len(showGraphHCHP)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(showGraphHCHP); err != nil {
			b.Fatal(err)
		}
	}
}
