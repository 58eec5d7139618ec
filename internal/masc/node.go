package masc

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// NodeConfig configures a claim-collide Node.
type NodeConfig struct {
	// Domain is the MASC domain this node allocates for.
	Domain wire.DomainID
	// Clock drives the waiting period and lifetimes.
	Clock simclock.Clock
	// Rand drives claim selection; must not be nil.
	Rand *rand.Rand
	// WaitPeriod is how long a claim listens for collisions before it is
	// won — 48 hours in the paper, shortened in tests via the sim clock.
	WaitPeriod time.Duration
	// AutoRenew keeps won ranges alive: shortly before a holding's
	// lifetime expires it is renewed for another lifetime and
	// re-announced (§4.3.1: "the address range claimed by the domain
	// becomes invalid once the lifetime expires unless the request is
	// renewed before expiration"). Disabled, holdings expire and are
	// given up.
	AutoRenew bool
	// OnRenewed runs when a holding's lifetime is extended, so the owner
	// can refresh the BGP route expiry and the MAAS range.
	OnRenewed func(p addr.Prefix, expires time.Time)
	// TopLevel marks a domain with no MASC parent: it claims from the
	// entire multicast space against its top-level siblings (§4.1).
	TopLevel bool
	// MaxClaim, when nonzero, is the largest prefix size (in addresses) a
	// parent tolerates from this node's children before sending explicit
	// CollideTooLarge collisions — the §7 fair-use disincentive.
	MaxClaim uint64
	// Send transmits a MASC message to another domain's node. Called
	// without internal locks held.
	Send func(to wire.DomainID, msg wire.Message)
	// Obs observes claim-collide protocol activity (claims announced,
	// collisions suffered, ranges won/expired/renewed/released), scoped
	// by Domain. Nil disables observation.
	Obs *obs.Observer
	// OnWon runs when a claim survives its waiting period, with the won
	// prefix and its expiry; the owner injects it into BGP and hands it
	// to the MAASes. Called without locks held.
	OnWon func(p addr.Prefix, expires time.Time)
	// OnLost runs when a previously won prefix is given up (released or
	// superseded); the owner withdraws the BGP route.
	OnLost func(p addr.Prefix)
}

// Node is the message-driven MASC protocol engine for one domain. It
// implements the claim-collide mechanism of §4.1: claims go to the parent
// and all (directly connected) siblings; any of them may answer with a
// collision during the waiting period; surviving claims become allocations.
//
// Node is safe for concurrent use.
type Node struct {
	cfg NodeConfig

	mu        sync.Mutex
	dead      bool                   // guarded by mu
	parent    wire.DomainID          // guarded by mu
	hasParent bool                   // guarded by mu
	siblings  map[wire.DomainID]bool // guarded by mu
	children  map[wire.DomainID]bool // guarded by mu
	// heard is this node's view of claimed space: parent's advertised
	// ranges define the spaces; sibling claims and own holdings are
	// recorded as taken. guarded by mu
	heard *Ledger
	// childClaims tracks claims by children inside our space.
	// guarded by mu
	childClaims *Ledger
	holdings    []*Holding                    // guarded by mu
	pending     map[addr.Prefix]*pendingClaim // guarded by mu
	nextClaimID uint64                        // guarded by mu
	outbox      []outMsg                      // guarded by mu
	// evbuf collects events under the lock; they are emitted with the
	// outbox after release so observers may call back into the node.
	// guarded by mu
	evbuf []obs.Event
}

type pendingClaim struct {
	prefix   addr.Prefix
	claimID  uint64
	life     time.Duration
	size     uint64 // original request, for retry
	attempts int
	// matureAt is the absolute end of the waiting period, kept so a
	// snapshot can re-arm the maturity timer with the remaining wait.
	matureAt time.Time
	timer    simclock.Timer
	// span traces the claim round from announcement to win/abandon; the
	// announced Claim messages carry its context to siblings and parent.
	span obs.Span
}

const (
	// defaultWaitPeriod is the paper's collision-listening period (§4.1).
	defaultWaitPeriod = 48 * time.Hour
	// retryDelay spaces successive claim attempts after a collision.
	retryDelay = time.Hour
	// maxAttempts caps claim retries for one RequestSpace call. In the
	// worst case of n simultaneous claimers the paper notes the nth domain
	// may need up to n attempts.
	maxAttempts = 16
)

// NewNode returns a Node. For top-level domains the claimable space is
// 224/4; otherwise it is empty until the parent's RangeAdvert arrives.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.WaitPeriod == 0 {
		cfg.WaitPeriod = defaultWaitPeriod
	}
	heard := NewLedger()
	if cfg.TopLevel {
		heard.SetSpaces([]addr.Prefix{addr.MulticastSpace})
	}
	return &Node{
		cfg:         cfg,
		siblings:    map[wire.DomainID]bool{},
		children:    map[wire.DomainID]bool{},
		heard:       heard,
		childClaims: NewLedger(),
		pending:     map[addr.Prefix]*pendingClaim{},
	}
}

// Shutdown models the node's process dying: pending-claim timers stop and
// every later timer or message callback becomes a no-op. A successor node
// (usually built from a Snapshot via Restore) takes over the domain's
// allocation duties. Irreversible.
func (n *Node) Shutdown() {
	n.mu.Lock()
	n.dead = true
	for _, pc := range n.pending {
		if pc.timer != nil {
			pc.timer.Stop()
		}
	}
	n.mu.Unlock()
}

// SetParent configures the node's MASC parent (chosen among its providers,
// §4.1). Ignored for top-level nodes.
func (n *Node) SetParent(d wire.DomainID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.TopLevel {
		return
	}
	n.parent = d
	n.hasParent = true
}

// AddSibling registers a sibling domain (same parent, or another top-level
// domain) to which claims are propagated.
func (n *Node) AddSibling(d wire.DomainID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d != n.cfg.Domain {
		n.siblings[d] = true
	}
}

// AddChild registers a child domain; the node advertises its ranges to
// children and arbitrates their claims.
func (n *Node) AddChild(d wire.DomainID) {
	n.mu.Lock()
	ranges := n.rangesLocked()
	n.children[d] = true
	n.mu.Unlock()
	if len(ranges) > 0 {
		n.send(d, &wire.RangeAdvert{Owner: n.cfg.Domain, Ranges: ranges})
	}
}

// Holdings returns copies of the node's won allocations.
func (n *Node) Holdings() []Holding {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Holding, 0, len(n.holdings))
	for _, h := range n.holdings {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool { return addr.Compare(out[i].Prefix, out[j].Prefix) < 0 })
	return out
}

// RequestSpace starts the claim process for a range of at least `size`
// addresses. The result arrives asynchronously through OnWon after the
// waiting period, or the claim silently retries on collision. It reports
// whether a claim could be selected and sent.
func (n *Node) RequestSpace(size uint64, lifetime time.Duration) bool {
	n.mu.Lock()
	ok := n.claimLocked(size, lifetime, 0)
	n.flushLocked()
	return ok
}

// outbox collects messages to send after the lock is released.
type outMsg struct {
	to  wire.DomainID
	msg wire.Message
}

// claimLocked selects and announces a claim. Caller holds n.mu.
func (n *Node) claimLocked(size uint64, lifetime time.Duration, attempts int) bool {
	if attempts >= maxAttempts {
		return false
	}
	maskLen := addr.MaskLenFor(size)
	if maskLen < 0 {
		return false
	}
	p, ok := n.heard.PickClaim(maskLen, n.cfg.Rand)
	if !ok {
		return false
	}
	if !n.heard.Claim(p) {
		return false
	}
	n.nextClaimID++
	pc := &pendingClaim{
		prefix: p, claimID: n.nextClaimID, life: lifetime, size: size, attempts: attempts,
		matureAt: n.cfg.Clock.Now().Add(n.cfg.WaitPeriod),
	}
	n.pending[p] = pc
	pc.span = n.cfg.Obs.Tracer().Begin(obs.SpanClaim, obs.Event{Domain: n.cfg.Domain, Prefix: p})
	claim := &wire.Claim{
		Claimer:  n.cfg.Domain,
		ClaimID:  pc.claimID,
		Prefix:   p,
		LifeSecs: uint32(lifetime / time.Second),
	}
	wire.Stamp(claim, pc.span.Context())
	n.announceLocked(claim)
	pc.timer = n.cfg.Clock.AfterFunc(n.cfg.WaitPeriod, func() { n.claimMatured(pc) })
	n.eventLocked(obs.MASCClaim, p)
	return true
}

// claimMatured runs when the waiting period for a claim elapses without a
// collision: the range is won — unless pc no longer pends, abandoned or
// replaced by a Restore while its timer was on its way.
func (n *Node) claimMatured(pc *pendingClaim) {
	n.mu.Lock()
	p := pc.prefix
	if n.dead || n.pending[p] != pc {
		n.mu.Unlock()
		return
	}
	delete(n.pending, p)
	expires := n.cfg.Clock.Now().Add(pc.life)
	n.holdings = append(n.holdings, &Holding{Prefix: p, Active: true, Expires: expires})
	n.scheduleExpiry(p, pc.life)
	n.eventLocked(obs.MASCWon, p)
	n.observeClaimConverge(pc)
	ranges := n.rangesLocked()
	children := sortedDomains(n.children)
	n.flushLocked()
	// Advertise the grown space to children.
	adv := &wire.RangeAdvert{Owner: n.cfg.Domain, Ranges: ranges}
	for _, c := range children {
		n.send(c, adv)
	}
	if n.cfg.OnWon != nil {
		n.cfg.OnWon(p, expires)
	}
}

// Release gives up a held range before expiry, informing parent, siblings,
// and children.
func (n *Node) Release(p addr.Prefix) {
	n.mu.Lock()
	found := n.dropHoldingLocked(p)
	if found {
		n.releaseLocked(p)
		n.eventLocked(obs.MASCReleased, p)
	}
	n.flushLocked()
	if found && n.cfg.OnLost != nil {
		n.cfg.OnLost(p)
	}
}

// HandleMessage processes a MASC message from another domain.
func (n *Node) HandleMessage(from wire.DomainID, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.RangeAdvert:
		n.handleRangeAdvert(from, m)
	case *wire.Claim:
		n.handleClaim(from, m)
	case *wire.Collision:
		n.handleCollision(from, m)
	case *wire.Release:
		n.handleRelease(from, m)
	}
}

func (n *Node) handleRangeAdvert(from wire.DomainID, m *wire.RangeAdvert) {
	n.mu.Lock()
	if !n.cfg.TopLevel && n.hasParent && from == n.parent {
		spaces := make([]addr.Prefix, 0, len(m.Ranges))
		for _, rl := range m.Ranges {
			spaces = append(spaces, rl.Prefix)
		}
		n.heard.SetSpaces(spaces)
	}
	n.mu.Unlock()
}

// handleClaim arbitrates a sibling's or child's claim against our state.
func (n *Node) handleClaim(from wire.DomainID, m *wire.Claim) {
	n.mu.Lock()
	fromChild := n.children[from]
	var collide *wire.Collision
	switch {
	case fromChild && n.cfg.MaxClaim > 0 && m.Prefix.Size() > n.cfg.MaxClaim:
		// §7 disincentive: the parent rejects excessive claims.
		collide = &wire.Collision{From: n.cfg.Domain, Loser: m.Claimer, Prefix: m.Prefix, Conflict: m.Prefix, Reason: wire.CollideTooLarge}
	case fromChild && !n.containsLocked(m.Prefix):
		// Child claimed outside our (current) space (§4.4).
		collide = &wire.Collision{From: n.cfg.Domain, Loser: m.Claimer, Prefix: m.Prefix, Conflict: m.Prefix, Reason: wire.CollideOutsideParent}
	case n.overlapsHoldingLocked(m.Prefix):
		conflict := m.Prefix
		for _, h := range n.holdings {
			if h.Prefix.Overlaps(m.Prefix) {
				conflict = h.Prefix
				break
			}
		}
		collide = &wire.Collision{From: n.cfg.Domain, Loser: m.Claimer, Prefix: m.Prefix, Conflict: conflict, Reason: wire.CollideInUse}
	default:
		if winner := n.pendingConflictLocked(m); winner != nil {
			collide = winner
		}
	}
	if collide != nil {
		n.outbox = append(n.outbox, outMsg{m.Claimer, collide})
	} else if fromChild {
		n.childClaims.Record(m.Prefix)
		// Parent relays child claims to its other children (§4.1: "A then
		// propagates this claim information to its other children").
		for _, c := range sortedDomains(n.children) {
			if c != from {
				n.outbox = append(n.outbox, outMsg{c, m})
			}
		}
	} else {
		// Sibling claim: record it so our future claims avoid it.
		n.heard.Record(m.Prefix)
	}
	n.flushLocked()
}

// pendingConflictLocked resolves a competing claim against the pending
// claims it overlaps: the lower (ClaimID, Domain) pair wins (§4.1
// footnote). If any of ours wins, the competitor gets that collision and
// nothing of ours moves; if all lose, each is abandoned and retried. The
// overlapping claims are walked in prefix order, so the answer depends on
// the claims alone and not on how the map iterates.
func (n *Node) pendingConflictLocked(m *wire.Claim) *wire.Collision {
	var ours []addr.Prefix
	for p := range n.pending {
		if p.Overlaps(m.Prefix) {
			ours = append(ours, p)
		}
	}
	slices.SortFunc(ours, addr.Compare)
	for _, p := range ours {
		pc := n.pending[p]
		if pc.claimID < m.ClaimID || (pc.claimID == m.ClaimID && n.cfg.Domain < m.Claimer) {
			return &wire.Collision{From: n.cfg.Domain, Loser: m.Claimer, Prefix: m.Prefix, Conflict: p, Reason: wire.CollideInUse}
		}
	}
	// We lose: abandon and re-claim elsewhere, off the winner's range,
	// after a delay.
	for _, p := range ours {
		pc := n.pending[p]
		n.abandonLocked(p, pc)
		n.scheduleRetry(pc)
	}
	if len(ours) > 0 {
		n.heard.Record(m.Prefix)
	}
	return nil
}

func (n *Node) handleCollision(from wire.DomainID, m *wire.Collision) {
	n.mu.Lock()
	if m.Loser != n.cfg.Domain {
		n.mu.Unlock()
		return
	}
	var lostHolding bool
	if pc, ok := n.pending[m.Prefix]; ok {
		n.eventLocked(obs.MASCCollision, m.Prefix)
		n.abandonLocked(m.Prefix, pc)
		if m.Reason == wire.CollideInUse && m.Conflict.Valid() {
			// Avoid the objector's conflicting range — and only it —
			// on the retry.
			n.heard.Record(m.Conflict)
		}
		n.scheduleRetry(pc)
	} else if n.dropHoldingLocked(m.Prefix) {
		// A collision can arrive for an already-won range after a
		// partition heals; the loser must give it up.
		n.heard.Release(m.Prefix)
		n.heard.Record(m.Conflict) // still taken — by the winner
		n.eventLocked(obs.MASCCollision, m.Prefix)
		lostHolding = true
	}
	n.flushLocked()
	if lostHolding && n.cfg.OnLost != nil {
		n.cfg.OnLost(m.Prefix)
	}
}

func (n *Node) handleRelease(from wire.DomainID, m *wire.Release) {
	n.mu.Lock()
	n.heard.Release(m.Prefix)
	n.childClaims.Release(m.Prefix)
	n.mu.Unlock()
}

// scheduleRetry re-runs claim selection for a lost claim after retryDelay,
// breaking the synchronous collide-reclaim recursion. Caller holds n.mu.
func (n *Node) scheduleRetry(pc *pendingClaim) {
	if pc.attempts+1 >= maxAttempts {
		return
	}
	size, life, attempts := pc.size, pc.life, pc.attempts+1
	n.cfg.Clock.AfterFunc(retryDelay, func() {
		n.mu.Lock()
		if n.dead {
			n.mu.Unlock()
			return
		}
		n.claimLocked(size, life, attempts)
		n.flushLocked()
	})
}

func (n *Node) abandonLocked(p addr.Prefix, pc *pendingClaim) {
	if pc.timer != nil {
		pc.timer.Stop()
	}
	pc.span.End()
	delete(n.pending, p)
	n.heard.Release(p)
}

// observeClaimConverge closes the claim's span and records the
// announce-to-win latency in the domain-scoped claim_converge histogram.
func (n *Node) observeClaimConverge(pc *pendingClaim) {
	pc.span.End()
	start := pc.span.Context().Start
	if start == 0 {
		return
	}
	now := n.cfg.Obs.Tracer().Now()
	if now < start {
		return
	}
	n.cfg.Obs.Histogram(obs.HistClaimConverge, n.cfg.Domain, 0).Observe(now - start)
}

func (n *Node) containsLocked(p addr.Prefix) bool {
	for _, h := range n.holdings {
		if h.Prefix.ContainsPrefix(p) {
			return true
		}
	}
	return false
}

func (n *Node) overlapsHoldingLocked(p addr.Prefix) bool {
	for _, h := range n.holdings {
		if h.Prefix.Overlaps(p) && !h.Prefix.ContainsPrefix(p) {
			return true
		}
		if h.Prefix == p || p.ContainsPrefix(h.Prefix) {
			return true
		}
	}
	return false
}

func (n *Node) rangesLocked() []wire.RangeLife {
	now := n.cfg.Clock.Now()
	out := make([]wire.RangeLife, 0, len(n.holdings))
	for _, h := range n.holdings {
		life := h.Expires.Sub(now)
		if life < 0 {
			continue
		}
		out = append(out, wire.RangeLife{Prefix: h.Prefix, LifeSecs: uint32(life / time.Second)})
	}
	return out
}

// scheduleExpiry arms the lifetime timer for a holding: renewal (when
// AutoRenew) or expiry-release. Caller holds n.mu.
func (n *Node) scheduleExpiry(p addr.Prefix, life time.Duration) {
	n.cfg.Clock.AfterFunc(life, func() { n.lifetimeDue(p, life) })
}

// lifetimeDue runs when a holding's lifetime elapses.
func (n *Node) lifetimeDue(p addr.Prefix, life time.Duration) {
	n.mu.Lock()
	if n.dead {
		n.mu.Unlock()
		return
	}
	var h *Holding
	for _, x := range n.holdings {
		if x.Prefix == p {
			h = x
			break
		}
	}
	if h == nil || h.Expires.After(n.cfg.Clock.Now()) {
		// Released meanwhile, or already renewed by a longer lease.
		n.mu.Unlock()
		return
	}
	if n.cfg.AutoRenew && h.Active {
		h.Expires = n.cfg.Clock.Now().Add(life)
		expires := h.Expires
		ranges := n.rangesLocked()
		children := sortedDomains(n.children)
		n.scheduleExpiry(p, life)
		n.eventLocked(obs.MASCRenewed, p)
		n.flushLocked()
		adv := &wire.RangeAdvert{Owner: n.cfg.Domain, Ranges: ranges}
		for _, c := range children {
			n.send(c, adv)
		}
		if n.cfg.OnRenewed != nil {
			n.cfg.OnRenewed(p, expires)
		}
		return
	}
	// Expiry: the range is given up; siblings and parent treat it as
	// unallocated once their own view of the lifetime lapses.
	n.dropHoldingLocked(p)
	n.releaseLocked(p)
	n.eventLocked(obs.MASCExpired, p)
	n.flushLocked()
	if n.cfg.OnLost != nil {
		n.cfg.OnLost(p)
	}
}

// eventLocked queues an observability event for post-unlock emission. Caller
// holds n.mu.
func (n *Node) eventLocked(kind obs.Kind, p addr.Prefix) {
	if n.cfg.Obs == nil {
		return
	}
	n.evbuf = append(n.evbuf, obs.Event{Kind: kind, Domain: n.cfg.Domain, Prefix: p})
}

// flushLocked ends a locked section: it takes what the section queued,
// releases n.mu, and only then sends the messages and emits the events, so
// peers and observers may call back into the node. Caller holds n.mu and
// no longer does on return.
func (n *Node) flushLocked() {
	msgs, evs := n.outbox, n.evbuf
	n.outbox, n.evbuf = nil, nil
	n.mu.Unlock()
	for _, m := range msgs {
		n.send(m.to, m.msg)
	}
	for _, e := range evs {
		n.cfg.Obs.Emit(e)
	}
}

func (n *Node) send(to wire.DomainID, msg wire.Message) {
	if n.cfg.Send != nil {
		n.cfg.Send(to, msg)
	}
}

// announceLocked queues msg for every sibling and the parent: the audience
// of a claim or a release (§4.1). Caller holds n.mu.
func (n *Node) announceLocked(msg wire.Message) {
	for _, s := range sortedDomains(n.siblings) {
		n.outbox = append(n.outbox, outMsg{s, msg})
	}
	if n.hasParent {
		n.outbox = append(n.outbox, outMsg{n.parent, msg})
	}
}

// releaseLocked frees p in our view of the claimed space and tells
// siblings and parent it is given up. Caller holds n.mu.
func (n *Node) releaseLocked(p addr.Prefix) {
	n.heard.Release(p)
	n.announceLocked(&wire.Release{Claimer: n.cfg.Domain, Prefix: p})
}

// dropHoldingLocked removes the holding of exactly p, reporting whether
// there was one. Caller holds n.mu.
func (n *Node) dropHoldingLocked(p addr.Prefix) bool {
	i := slices.IndexFunc(n.holdings, func(h *Holding) bool { return h.Prefix == p })
	if i >= 0 {
		n.holdings = slices.Delete(n.holdings, i, i+1)
	}
	return i >= 0
}

// sortedDomains returns a neighbor set's domain IDs in ascending order.
// Outbound message order is part of the protocol's observable behavior,
// so it must never depend on map iteration.
func sortedDomains(set map[wire.DomainID]bool) []wire.DomainID {
	out := make([]wire.DomainID, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}
