package dataplane

import (
	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/wire"
)

// sharedTree is the default backend: it delegates to the router's BGMP
// component, whose bidirectional shared trees are the paper's data plane.
type sharedTree struct {
	c *bgmp.Component
}

// NewSharedTree wraps an existing BGMP component as a Backend. The
// component keeps handling its own control plane (joins, prunes, source
// branches); the backend only fronts the data path and lifecycle hooks.
func NewSharedTree(c *bgmp.Component) Backend { return &sharedTree{c: c} }

func (s *sharedTree) Deliver(src bgmp.Target, d *wire.Data) { s.c.Deliver(src, d) }

// HandleControl is a no-op: shared-tree control traffic (GroupJoin et al.)
// flows through the BGMP component directly, and MemberReport is only
// spoken by the stateless backends.
func (s *sharedTree) HandleControl(src bgmp.Target, msg wire.Message) {}

func (s *sharedTree) LocalJoin(g addr.Addr)  { s.c.LocalJoin(g) }
func (s *sharedTree) LocalLeave(g addr.Addr) { s.c.LocalLeave(g) }

func (s *sharedTree) HasForwardingState(g addr.Addr) bool { return s.c.HasForwardingState(g) }

func (s *sharedTree) RouteChanged(p addr.Prefix, ctx wire.TraceContext) { s.c.RouteChanged(p, ctx) }

func (s *sharedTree) Reset() { s.c.Reset() }

func (s *sharedTree) Stats() Stats {
	groups, srcs := s.c.StateSize()
	return Stats{GroupEntries: groups + srcs}
}

var _ Backend = (*sharedTree)(nil)
