package storlet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"scoop/internal/pushdown"
)

func TestDeployManifestErrors(t *testing.T) {
	e := newTestEngine(t, Limits{}, upper)
	bad := []string{
		`not json`,
		`{"type": "pipeline", "chain": [{"filter": "upper"}]}`,              // missing name
		`{"name": "x", "type": "prefixer", "chain": [{"filter": "upper"}]}`, // not a pipeline
		`{"name": "p", "type": "pipeline"}`,                                 // pipeline without steps
		`{"name": "p"}`,                                                     // untyped, without steps
		`{"name": "p", "chain": [{"filter": ""}]}`,                          // step without filter
		`{"name": "p", "chain": [{"filter": "f", "predicates": [{"col": "c", "op": "bogus"}]}]}`,
	}
	for i, m := range bad {
		if err := e.DeployManifest([]byte(m)); err == nil {
			t.Errorf("manifest %d accepted: %s", i, m)
		}
	}
	if err := e.DeployManifest([]byte(bad[2])); err == nil || !strings.Contains(err.Error(), "not a pipeline") {
		t.Errorf("non-pipeline manifest: %v, want a not-a-pipeline error", err)
	}
	// Deploying a name already taken surfaces ErrAlreadyDeployed.
	err := e.DeployManifest([]byte(`{"name": "upper", "chain": [{"filter": "upper"}]}`))
	if !errors.Is(err, ErrAlreadyDeployed) {
		t.Errorf("duplicate deploy error = %v, want ErrAlreadyDeployed", err)
	}
}

func TestDeployPipelineRedeployIsAlreadyDeployed(t *testing.T) {
	e := newTestEngine(t, Limits{}, upper)
	manifest := []byte(`{"name": "p", "chain": [{"filter": "upper"}]}`)
	if err := e.DeployManifest(manifest); err != nil {
		t.Fatal(err)
	}
	// Redeploying the same pipeline is idempotent from a deploy flow's view:
	// it reports ErrAlreadyDeployed, which callers treat as success.
	if err := e.DeployManifest(manifest); !errors.Is(err, ErrAlreadyDeployed) {
		t.Fatalf("pipeline redeploy: want ErrAlreadyDeployed, got %v", err)
	}
	// And the original deployment still works.
	if got, err := runTask(t, e, "p", "hi"); err != nil || got != "HI" {
		t.Fatalf("pipeline after redeploy: %q, %v", got, err)
	}
}

func TestRunChainPropagatesFirstStageError(t *testing.T) {
	boom := FilterFunc{FilterName: "boom", Fn: func(_ *Context, _ io.Reader, _ io.Writer) error {
		return fmt.Errorf("first stage exploded")
	}}
	e := newTestEngine(t, Limits{}, boom, upper, reverse)
	base := &Context{RangeEnd: 3, ObjectSize: 3}
	tasks := []*pushdown.Task{{Filter: "boom"}, {Filter: "upper"}, {Filter: "reverse"}}
	rc, err := e.RunChain(base, tasks, strings.NewReader("abc"))
	if err != nil {
		t.Fatalf("chain start: %v", err)
	}
	defer rc.Close()
	_, err = io.ReadAll(rc)
	var fe *FilterError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FilterError, got %v", err)
	}
	if fe.Filter != "boom" {
		t.Fatalf("error attributed to %q, want the FIRST failing stage %q", fe.Filter, "boom")
	}
	if !strings.Contains(err.Error(), "first stage exploded") {
		t.Fatalf("cause lost: %v", err)
	}
}

func TestPipelineManifestPropagatesContext(t *testing.T) {
	// A pipeline macro must forward Context.Ctx to its stages: a filter that
	// inspects ctx.Ctx sees the request context, not nil.
	gotCtx := make(chan bool, 1)
	probe := FilterFunc{FilterName: "probe", Fn: func(ctx *Context, in io.Reader, out io.Writer) error {
		gotCtx <- ctx.Ctx != nil
		_, err := io.Copy(out, in)
		return err
	}}
	e := newTestEngine(t, Limits{}, probe)
	if err := e.DeployManifest([]byte(`{"name": "p", "chain": [{"filter": "probe"}]}`)); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{
		Ctx:      context.Background(),
		Task:     &pushdown.Task{Filter: "p"},
		RangeEnd: 2, ObjectSize: 2,
	}
	rc, err := e.RunChain(ctx, []*pushdown.Task{ctx.Task}, strings.NewReader("ok"))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); err != nil {
		t.Fatal(err)
	}
	if !<-gotCtx {
		t.Fatal("pipeline stage did not receive Context.Ctx")
	}
}

func TestDeployPipelineManifest(t *testing.T) {
	e := NewEngine(Limits{})
	_ = e.Register(upper)
	_ = e.Register(reverse)
	manifest := `{"name": "shout-backwards", "type": "pipeline", "chain": [
		{"filter": "upper"},
		{"filter": "reverse"}
	]}`
	if err := e.DeployManifest([]byte(manifest)); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Task: &pushdown.Task{Filter: "shout-backwards"}, RangeEnd: 3, ObjectSize: 3}
	rc, err := e.RunChain(ctx, []*pushdown.Task{ctx.Task}, strings.NewReader("abc"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(b) != "CBA" {
		t.Fatalf("got %q, %v", b, err)
	}
}

func TestPipelineOptionMerge(t *testing.T) {
	e := NewEngine(Limits{})
	echoOpt := FilterFunc{
		FilterName: "echo-opt",
		Fn: func(ctx *Context, _ io.Reader, out io.Writer) error {
			fmt.Fprintf(out, "%s/%s", ctx.Task.Options["fixed"], ctx.Task.Options["var"])
			return nil
		},
	}
	_ = e.Register(echoOpt)
	manifest := `{"name": "macro", "chain": [{"filter": "echo-opt", "options": {"fixed": "F"}}]}`
	if err := e.DeployManifest([]byte(manifest)); err != nil {
		t.Fatal(err)
	}
	// Invocation-time options merge into the first step.
	ctx := &Context{
		Task:     &pushdown.Task{Filter: "macro", Options: map[string]string{"var": "V"}},
		RangeEnd: 1, ObjectSize: 1,
	}
	rc, err := e.RunChain(ctx, []*pushdown.Task{ctx.Task}, strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rc)
	rc.Close()
	if string(b) != "F/V" {
		t.Errorf("got %q", b)
	}
}

// A deployed pipeline runs as the stages of the one chain that names it: it
// holds the chain's one slot, and its steps' filters do the accounting.
func TestPipelineTakesOneSlot(t *testing.T) {
	e := newTestEngine(t, Limits{MaxConcurrent: 1, QueueWait: 200 * time.Millisecond}, upper)
	if err := e.DeployManifest([]byte(`{"name": "p", "chain": [{"filter": "upper"}]}`)); err != nil {
		t.Fatal(err)
	}
	in := io.NopCloser(strings.NewReader("hi"))
	rc, err := e.Open(context.Background(), []*pushdown.Task{{Filter: "p"}}, in, 0, 2, 2)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(b) != "HI" {
		t.Fatalf("read = %q, %v; want HI", b, err)
	}
	if s := e.StatsFor("upper"); s.Invocations != 1 || s.Rejections != 0 {
		t.Errorf("upper stats = %+v, want 1 invocation, 0 rejections", s)
	}
	if s := e.StatsFor("p"); s.Invocations != 0 {
		t.Errorf("pipeline stats = %+v, want no invocations of its own", s)
	}
	if f, ok := e.Get("p"); !ok || f != nil {
		t.Errorf("Get(p) = %v, %v; want a deployed name without a filter", f, ok)
	}
}

func TestDeployRefusesCycles(t *testing.T) {
	e := newTestEngine(t, Limits{}, upper)
	if err := e.DeployManifest([]byte(`{"name": "self", "chain": [{"filter": "upper"}, {"filter": "self"}]}`)); err == nil {
		t.Error("self-referencing pipeline deployed")
	}
	// A two-cycle and a three-cycle, each closed by its last deploy.
	for _, cycle := range [][]string{{"a", "b"}, {"x", "y", "z"}} {
		for i, name := range cycle {
			next := cycle[(i+1)%len(cycle)]
			err := e.DeployManifest([]byte(fmt.Sprintf(`{"name": %q, "chain": [{"filter": %q}]}`, name, next)))
			if closes := i == len(cycle)-1; closes != (err != nil) {
				t.Errorf("deploy %s -> %s: err = %v, want refused only when it closes the cycle %v", name, next, err, cycle)
			}
		}
	}
	for _, name := range []string{"self", "b", "z"} {
		if _, ok := e.Get(name); ok {
			t.Errorf("refused pipeline %q is deployed", name)
		}
	}
}

func TestPipelineOfPipelineIsInlined(t *testing.T) {
	e := newTestEngine(t, Limits{}, upper, reverse)
	for _, m := range []string{
		`{"name": "shout", "chain": [{"filter": "upper"}]}`,
		`{"name": "shout-backwards", "chain": [{"filter": "shout"}, {"filter": "reverse"}]}`,
	} {
		if err := e.DeployManifest([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := runTask(t, e, "shout-backwards", "abc"); err != nil || got != "CBA" {
		t.Fatalf("got %q, %v; want CBA", got, err)
	}
	if s := e.StatsFor("upper"); s.Invocations != 1 {
		t.Errorf("upper invocations = %d, want 1", s.Invocations)
	}
}

// A step naming a pipeline deployed after the pipeline holding it is not
// expanded a second time: the chain is refused before any stage starts.
func TestPipelineForwardReferenceRefused(t *testing.T) {
	e := newTestEngine(t, Limits{}, upper)
	for _, m := range []string{
		`{"name": "outer", "chain": [{"filter": "upper"}, {"filter": "inner"}]}`,
		`{"name": "inner", "chain": [{"filter": "upper"}]}`,
	} {
		if err := e.DeployManifest([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	rc, err := e.RunChain(&Context{RangeEnd: 1, ObjectSize: 1}, []*pushdown.Task{{Filter: "outer"}}, strings.NewReader("x"))
	if rc != nil || !errors.Is(err, ErrNotDeployed) || !strings.Contains(err.Error(), `"inner" is a pipeline`) {
		t.Fatalf("forward reference: rc = %v, err = %v; want ErrNotDeployed naming inner, and no stream", rc, err)
	}
	if s := e.StatsFor("upper"); s.Invocations != 0 {
		t.Errorf("upper invocations = %d, want 0 (refused before any stage)", s.Invocations)
	}
}
