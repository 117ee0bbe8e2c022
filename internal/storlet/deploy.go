package storlet

import (
	"encoding/json"
	"fmt"

	"scoop/internal/pushdown"
)

// This file implements the Storlets deployment story: "a developer can
// write code, package and deploy it as a regular object" (paper §V). Go
// cannot load code at runtime, so filters are compiled in and registered
// once (the sandbox images of real Storlets), and a *manifest* — a JSON
// document stored as a regular object — deploys a named pipeline of
// deployed filters and pipelines (a macro) at runtime, without touching the
// store's code. Tenants then invoke the pipeline as a single pushdown task,
// which the engine expands into the pipeline's steps: a pipeline is a name
// for a flat list of tasks, not a filter.

// Manifest is the deployable description of a pipeline.
type Manifest struct {
	// Name the pipeline is deployed under.
	Name string `json:"name"`
	// Type is "pipeline" or empty; any other type is refused.
	Type string `json:"type"`
	// Chain holds the pipeline's steps: deployed filters with fixed
	// options, or pipelines deployed earlier, which deploy inlines.
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

// deployPipeline deploys m's steps as a flat task list. A step naming a
// pipeline deployed earlier is replaced by that pipeline's steps, already
// flat, with the step's options merged into the first of them, as at
// invocation. Steps that lead back to m are refused, so every cycle is
// refused at the deploy that would close it.
func (e *Engine) deployPipeline(m Manifest) error {
	if len(m.Chain) == 0 {
		return fmt.Errorf("storlet: pipeline %q has no steps", m.Name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.filters[m.Name]; dup {
		return fmt.Errorf("%w: %q", ErrAlreadyDeployed, m.Name)
	}
	var steps []*pushdown.Task
	for i, step := range m.Chain {
		if step.Filter == "" {
			return fmt.Errorf("storlet: pipeline %q step %d missing filter", m.Name, i)
		}
		task := &pushdown.Task{
			Filter:     step.Filter,
			Options:    step.Options,
			Columns:    step.Columns,
			Predicates: step.Predicates,
			Schema:     step.Schema,
		}
		if err := task.Validate(); err != nil {
			return fmt.Errorf("storlet: pipeline %q step %d: %w", m.Name, i, err)
		}
		steps = appendStep(steps, task, e.filters[task.Filter].steps)
	}
	if e.reaches(steps, m.Name) {
		return fmt.Errorf("storlet: pipeline %q leads back to itself", m.Name)
	}
	e.filters[m.Name] = entry{steps: steps}
	return nil
}

// reaches reports whether steps name name, directly or through the steps of
// pipelines they name: a step naming a pipeline deployed after the one
// holding it is not inlined. Each deploy refuses the cycle it would close,
// so the walk ends. Caller holds e.mu.
func (e *Engine) reaches(steps []*pushdown.Task, name string) bool {
	for _, step := range steps {
		if step.Filter == name || e.reaches(e.filters[step.Filter].steps, name) {
			return true
		}
	}
	return false
}

// appendStep appends task to a chain: task itself, or, when task names a
// pipeline, that pipeline's steps with task's options merged into the first.
func appendStep(chain []*pushdown.Task, task *pushdown.Task, pipeline []*pushdown.Task) []*pushdown.Task {
	if pipeline == nil {
		return append(chain, task)
	}
	first := pipeline[0]
	if len(task.Options) > 0 {
		merged := *first
		merged.Options = make(map[string]string, len(first.Options)+len(task.Options))
		for k, v := range first.Options {
			merged.Options[k] = v
		}
		for k, v := range task.Options {
			merged.Options[k] = v
		}
		first = &merged
	}
	chain = append(chain, first)
	return append(chain, pipeline[1:]...)
}
