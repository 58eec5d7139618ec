package main

import (
	"fmt"
	"strings"

	"mascbgmp/internal/dataplane"
)

// ledger attributes the observed time of one send and of one join to the
// layers: count × unit cost per layer, the rest is self time — dispatch,
// locks, the delivery log, fabric glue, and everything the isolated loops
// do not reproduce. Rows plus self time sum to the op time by construction.
type ledger struct{ send, join opLedger }

type opLedger struct {
	name  string
	total float64 // observed ns per op
	rows  []ledgerRow
	self  float64
}

type ledgerRow struct {
	layer, what string
	count, unit float64 // per op; ns
}

func (o *opLedger) add(layer, what string, count, unit float64) {
	if count > 0 {
		o.rows = append(o.rows, ledgerRow{layer, what, count, unit})
	}
}

func (o *opLedger) close() {
	o.self = o.total
	for _, r := range o.rows {
		o.self -= r.count * r.unit
	}
}

// buildLedger combines the counts of the observed stack with the unit
// costs in m. Hop counts no counter exposes are walked from outside along
// the routers' own G-RIBs.
func buildLedger(st *stack, sc *script, r *runner, m map[string]float64, med perOp) ledger {
	shared := st.w.spec.dataPlane == dataplane.SharedTreeName
	forwards := m["dataplane.forwards_per_send"]
	injects := float64(r.seen[opSend].injected) / float64(r.ops[opSend])

	send := opLedger{name: "send", total: med[opSend]}
	send.add("wire", "Data encode+decode per inter-domain hop", forwards, m["wire.data64_codec_ns"])
	send.add("migp", "fabric deliveries (origin + injections)", injects, m["migp.deliver_ns"])
	rpf := injects - 1 // every injection checks interior RPF against the M-RIB
	if shared {
		offTree := 0
		for _, p := range sc.sends {
			offTree += st.gribHops(int(p.domain), st.groups[p.group], true)
		}
		send.add("bgmp", "packets handled (origin border + one per hop)", forwards+1, m["bgmp.forward_ns"])
		send.add("bgp", "M-RIB lookup per interior RPF check", rpf, m["bgp.rpf_lookup_ns"])
		send.add("bgp", "G-RIB lookup per off-tree hop", float64(offTree)/float64(len(sc.sends)), m["bgp.lookup_ns"])
	} else {
		unit := m["dataplane.bier_deliver_ns"]
		if st.w.spec.dataPlane == dataplane.MapEncapName {
			unit = m["dataplane.encap_deliver_ns"]
		}
		send.add("dataplane", "root replication to the member domains", 1, unit)
		send.add("bgp", "M-RIB lookup per interior RPF check + unicast lookup per hop", rpf+forwards, m["bgp.rpf_lookup_ns"])
	}
	send.close()

	join := opLedger{name: "join", total: med[opJoin]}
	join.add("migp", "host join", 1, m["migp.hostjoin_ns"])
	if shared {
		hops := m["bgmp.joins_per_join"] // one per router the join reaches
		join.add("bgmp", "join processed per router", hops, m["bgmp.join_ns"])
		join.add("wire", "GroupJoin encode+decode per peer hop", hops-1, m["wire.join_codec_ns"])
		join.add("bgp", "best-exit lookup + parent and backup lookups per new entry", 1+2*(hops-1), m["bgp.lookup_ns"])
	} else {
		hops, n := 0, 0
		for _, p := range sc.passes {
			for _, q := range p.joins {
				hops += st.gribHops(int(q.domain), st.groups[q.group], false)
				n++
			}
		}
		perJoin := float64(hops) / float64(n)
		join.add("dataplane", "MemberReport handled per hop", perJoin, m["dataplane.report_ns"])
		join.add("wire", "MemberReport encode+decode per hop", perJoin, m["wire.report_codec_ns"])
		join.add("bgp", "best-exit lookup + one G-RIB lookup per router", 2+perJoin, m["bgp.lookup_ns"])
	}
	join.close()
	return ledger{send, join}
}

func (l ledger) String() string {
	var b strings.Builder
	for _, o := range []opLedger{l.send, l.join} {
		fmt.Fprintf(&b, "ledger %s: %.0f ns observed per op\n", o.name, o.total)
		for _, r := range o.rows {
			fmt.Fprintf(&b, "  %-10s %8.2f x %9.1f ns = %10.0f ns  %5.1f%%  %s\n",
				r.layer, r.count, r.unit, r.count*r.unit, 100*r.count*r.unit/o.total, r.what)
		}
		fmt.Fprintf(&b, "  %-10s %34.0f ns  %5.1f%%  (observed - sum of the rows)\n", "self", o.self, 100*o.self/o.total)
	}
	return b.String()
}
