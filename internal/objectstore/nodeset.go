package objectstore

import (
	"fmt"
	"sync"
)

// NodeSet is the live membership view shared by a cluster and its proxies:
// a mutable, concurrency-safe name→node table. Proxies resolve ring node
// names through it on every request, so a membership change (join, eject,
// drain detach) is visible to the data path the moment it lands here — no
// proxy restart, no per-proxy copies to keep in sync.
//
// Iteration order is insertion order, which keeps anything that walks the
// membership (health probes, stats aggregation, tests indexing Nodes())
// deterministic across runs.
type NodeSet struct {
	mu    sync.RWMutex
	nodes map[string]*Node
	order []string
}

// NewNodeSet returns a set holding the given nodes in order.
func NewNodeSet(nodes ...*Node) *NodeSet {
	s := &NodeSet{nodes: make(map[string]*Node, len(nodes))}
	for _, n := range nodes {
		s.nodes[n.Name()] = n
		s.order = append(s.order, n.Name())
	}
	return s
}

// Add registers a node; duplicate names are an error.
func (s *NodeSet) Add(n *Node) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.nodes[n.Name()]; dup {
		return fmt.Errorf("objectstore: duplicate node %q", n.Name())
	}
	s.nodes[n.Name()] = n
	s.order = append(s.order, n.Name())
	return nil
}

// Remove detaches a node by name, returning it (nil if absent).
func (s *NodeSet) Remove(name string) *Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[name]
	if !ok {
		return nil
	}
	delete(s.nodes, name)
	for i, o := range s.order {
		if o == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return n
}

// Get resolves a node by name.
func (s *NodeSet) Get(name string) (*Node, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[name]
	return n, ok
}

// resolve maps names to their member nodes, in order, skipping names that
// are not (or no longer) members: an ejected node can neither serve nor
// take bytes, so callers walking a placement simply do not see it.
func (s *NodeSet) resolve(names []string) []*Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Node, 0, len(names))
	for _, name := range names {
		if n, ok := s.nodes[name]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Names returns the member names in insertion order.
func (s *NodeSet) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// All returns the member nodes in insertion order.
func (s *NodeSet) All() []*Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Node, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.nodes[name])
	}
	return out
}

// Len returns the member count.
func (s *NodeSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.order)
}
