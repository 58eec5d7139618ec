package bgp

import "mascbgmp/internal/wire"

// CustomerExportFilter implements the canonical provider-customer policy of
// paper §3/§4.2: toward providers and peers, a domain advertises only
// routes originated by itself or by its customer domains (so only traffic
// to/from its customers transits it); toward its own customers it
// advertises everything.
//
// self is the local domain; customers the set of (transitively reachable)
// customer domains; providerOrPeer the set of neighbor domains that are not
// customers. Neighbor domains absent from both sets are treated as
// providers/peers (the conservative choice).
func CustomerExportFilter(self wire.DomainID, customers map[wire.DomainID]bool) ExportFilter {
	return func(to Neighbor, table wire.Table, rt wire.Route) bool {
		if customers[to.Domain] {
			return true // customers receive full routes
		}
		return rt.Origin == self || customers[rt.Origin]
	}
}

// TableExportFilter restricts a filter to one table, permitting everything
// in the others. The paper's multicast policies act on group routes, so
// provider policies are usually wrapped as
// TableExportFilter(wire.TableGRIB, CustomerExportFilter(...)).
func TableExportFilter(table wire.Table, f ExportFilter) ExportFilter {
	return func(to Neighbor, t wire.Table, rt wire.Route) bool {
		if t != table {
			return true
		}
		return f(to, t, rt)
	}
}
