// Code generated by scoop-lint -write-manifest. DO NOT EDIT.
//
// Regenerate with: go run ./cmd/scoop-lint -write-manifest internal/detmanifest/manifest.go

package detmanifest

// Proven maps each statically-proven-deterministic filter name to true.
var Proven = map[string]bool{
	"compress":     true,
	"csv":          true,
	"etl-cleanse":  true,
	"etl-splitcol": true,
	"grep":         true,
}
