package storlet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// sentinelNames names each row's sentinel as DESIGN §8 prints it.
var sentinelNames = map[error]string{
	ErrNotDeployed:      "`ErrNotDeployed`",
	ErrPushdownDisabled: "`ErrPushdownDisabled`",
	ErrBadTask:          "`ErrBadTask`",
	ErrOverloaded:       "`ErrOverloaded`",
	ErrBreakerOpen:      "`ErrBreakerOpen`",
	ErrInputFailed:      "`ErrInputFailed`",
	io.ErrClosedPipe:    "`io.ErrClosedPipe`",
	ErrFilterFailed:     "`ErrFilterFailed`, any `*FilterError`",
	ErrUnavailable:      "`ErrUnavailable`",
	nil:                 "any other error",
}

// renderFailures renders Failures as DESIGN §8's markdown table.
func renderFailures(t *testing.T) string {
	yes := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	var b strings.Builder
	b.WriteString("| Reason | Matches | What failed | Status | Client retries | Proxy fails over | Query falls back | Counts against the filter |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, c := range Failures {
		name, ok := sentinelNames[c.Err]
		if !ok {
			t.Fatalf("row %q: sentinel %v has no name", c.Reason, c.Err)
		}
		reason := "—"
		if c.Reason != "" {
			reason = "`" + c.Reason + "`"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %d | %s | %s | %s | %s |\n",
			reason, name, c.Cause, c.Status, yes(c.Retry), yes(c.Failover), yes(c.Fallback), yes(c.Counts))
	}
	return b.String()
}

// DESIGN §8's table is the code's: a row changed on one side only fails.
func TestDesignFailureTableMatchesCode(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := renderFailures(t); !strings.Contains(string(design), want) {
		t.Fatalf("DESIGN.md §8 does not hold the failure table; it should read:\n%s", want)
	}
}

// Each row's sentinel classifies as its row, bare and wrapped in a
// *FilterError, and each reason token decodes to its row.
func TestClassifyFindsEveryRow(t *testing.T) {
	for _, c := range Failures {
		if c.Err == nil {
			if got := Classify(errors.New("disk on fire")); got.Reason != c.Reason || got.Err != nil {
				t.Errorf("an unknown error classifies as %q, want the catch-all row", got.Reason)
			}
			continue
		}
		for _, err := range []error{c.Err, &FilterError{Filter: "f", Err: fmt.Errorf("x: %w", c.Err)}} {
			if got := Classify(err); got.Reason != c.Reason {
				t.Errorf("Classify(%v) = %q, want %q", err, got.Reason, c.Reason)
			}
		}
		if got := ForReason(c.Reason); got.Err != c.Err {
			t.Errorf("ForReason(%q) = %v, want %v", c.Reason, got.Err, c.Err)
		}
	}
	if got := ForReason("no-such-token"); got.Reason != "unavailable" {
		t.Errorf("an unknown token decodes to %q, want unavailable", got.Reason)
	}
}
