package storlet

import (
	"encoding/json"
	"fmt"
	"io"

	"scoop/internal/pushdown"
)

// This file implements the Storlets deployment story: "a developer can
// write code, package and deploy it as a regular object" (paper §V). Go
// cannot load code at runtime, so filters are compiled in and registered
// once (the sandbox images of real Storlets), and a *manifest* — a JSON
// document stored as a regular object — deploys a named pipeline of
// already-deployed filters (a macro) at runtime, without touching the
// store's code. Tenants then invoke the pipeline as a single pushdown task.

// Manifest is the deployable description of a pipeline.
type Manifest struct {
	// Name the pipeline is deployed under.
	Name string `json:"name"`
	// Type is "pipeline" or empty; any other type is refused.
	Type string `json:"type"`
	// Chain holds the pipeline's steps: already-deployed filters with
	// fixed options.
	Chain []ChainStep `json:"chain,omitempty"`
}

// ChainStep is one stage of a pipeline manifest.
type ChainStep struct {
	Filter  string            `json:"filter"`
	Options map[string]string `json:"options,omitempty"`
	// Columns/Predicates/Schema allow a pipeline step to fix a full task.
	Columns    []string             `json:"columns,omitempty"`
	Predicates []pushdown.Predicate `json:"predicates,omitempty"`
	Schema     string               `json:"schema,omitempty"`
}

// DeployManifest parses a manifest document and deploys the pipeline it
// describes. The manifest may come from any source; object stores deliver
// it as a regular object (see objectstore.DeployStorlets).
func (e *Engine) DeployManifest(data []byte) error {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("storlet: bad manifest: %w", err)
	}
	if m.Name == "" {
		return fmt.Errorf("storlet: manifest missing name")
	}
	if m.Type != "" && m.Type != "pipeline" {
		return fmt.Errorf("storlet: manifest %q: type %q is not a pipeline", m.Name, m.Type)
	}
	return e.deployPipeline(m)
}

// deployPipeline registers a named macro filter that runs a fixed chain of
// already-deployed filters.
func (e *Engine) deployPipeline(m Manifest) error {
	if len(m.Chain) == 0 {
		return fmt.Errorf("storlet: pipeline %q has no steps", m.Name)
	}
	tasks := make([]*pushdown.Task, len(m.Chain))
	for i, step := range m.Chain {
		if step.Filter == "" {
			return fmt.Errorf("storlet: pipeline %q step %d missing filter", m.Name, i)
		}
		tasks[i] = &pushdown.Task{
			Filter:     step.Filter,
			Options:    step.Options,
			Columns:    step.Columns,
			Predicates: step.Predicates,
			Schema:     step.Schema,
		}
		if err := tasks[i].Validate(); err != nil {
			return fmt.Errorf("storlet: pipeline %q step %d: %w", m.Name, i, err)
		}
	}
	return e.Register(&pipelineFilter{name: m.Name, engine: e, tasks: tasks})
}

// pipelineFilter invokes a fixed chain through its engine.
type pipelineFilter struct {
	name   string
	engine *Engine
	tasks  []*pushdown.Task
}

// Name implements Filter.
func (p *pipelineFilter) Name() string { return p.name }

// Invoke implements Filter by running the fixed chain. The invocation-time
// task's options are merged into the FIRST step (so callers can still tune
// a deployed pipeline per request).
func (p *pipelineFilter) Invoke(ctx *Context, in io.Reader, out io.Writer) error {
	tasks := make([]*pushdown.Task, len(p.tasks))
	copy(tasks, p.tasks)
	if ctx.Task != nil && len(ctx.Task.Options) > 0 {
		first := *tasks[0]
		merged := make(map[string]string, len(first.Options)+len(ctx.Task.Options))
		for k, v := range first.Options {
			merged[k] = v
		}
		for k, v := range ctx.Task.Options {
			merged[k] = v
		}
		first.Options = merged
		tasks[0] = &first
	}
	base := &Context{
		Ctx:        ctx.Ctx,
		RangeStart: ctx.RangeStart,
		RangeEnd:   ctx.RangeEnd,
		ObjectSize: ctx.ObjectSize,
		Log:        ctx.Log,
	}
	rc, err := p.engine.RunChain(base, tasks, in)
	if err != nil {
		return err
	}
	defer rc.Close()
	_, err = io.Copy(out, rc)
	return err
}
