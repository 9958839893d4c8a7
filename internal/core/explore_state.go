package core

// Canonical state encoding and symmetry reduction for the model-checking
// explorer (explore.go); the invariants it checks are in invariants.go.

import (
	"fmt"
	"sort"
	"strings"
)

// symmetryPerms computes the process-ID permutations under which the
// model is symmetric: two processes are interchangeable iff they run the
// same program and play the same home roles. The checker canonicalizes
// every state by taking the lexicographically least encoding over these
// permutations (Murphi-style scalarset reduction).
func symmetryPerms(c ExpConfig) [][]int {
	n := len(c.Programs)
	sig := make([]string, n)
	for i, prog := range c.Programs {
		var b strings.Builder
		for _, op := range prog {
			b.WriteString(op.String())
			b.WriteByte(';')
		}
		sig[i] = b.String()
	}
	for blk, h := range c.Homes {
		sig[h] += fmt.Sprintf("|home%d", blk)
	}
	classes := make(map[string][]int)
	var order []string
	for i := 0; i < n; i++ {
		if _, ok := classes[sig[i]]; !ok {
			order = append(order, sig[i])
		}
		classes[sig[i]] = append(classes[sig[i]], i)
	}
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	perms := [][]int{identity}
	for _, key := range order {
		members := classes[key]
		if len(members) < 2 {
			continue
		}
		var next [][]int
		for _, mp := range permutationsOf(members) {
			for _, base := range perms {
				p := append([]int(nil), base...)
				for i, m := range members {
					p[m] = mp[i]
				}
				next = append(next, p)
			}
		}
		perms = next
	}
	return perms
}

func permutationsOf(xs []int) [][]int {
	var out [][]int
	var rec func(k int)
	work := append([]int(nil), xs...)
	rec = func(k int) {
		if k == len(work) {
			out = append(out, append([]int(nil), work...))
			return
		}
		for i := k; i < len(work); i++ {
			work[k], work[i] = work[i], work[k]
			rec(k + 1)
			work[k], work[i] = work[i], work[k]
		}
	}
	rec(0)
	return out
}

// Encode returns the canonical fingerprint of the current state: the
// lexicographic minimum over all symmetry permutations of the full
// protocol-relevant state (process program counters and observations,
// MSHRs, deferred requests, state tables, data, directories, in-flight
// messages, and the ghost values). Simulated time, statistics, and the
// monotonic ghost write counters are deliberately excluded.
func (e *Explorer) Encode() string {
	best := ""
	for _, perm := range e.perms {
		s := e.encodeWith(perm)
		if best == "" || s < best {
			best = s
		}
	}
	return best
}

func (e *Explorer) encodeWith(perm []int) string {
	n := len(e.eps)
	inv := make([]int, n)
	for o, c := range perm {
		inv[c] = o
	}
	var b strings.Builder
	for c := 0; c < n; c++ {
		ep := e.eps[inv[c]]
		p := ep.p
		fmt.Fprintf(&b, "P%d{pc%d", c, ep.pc)
		if ep.await != nil {
			fmt.Fprintf(&b, " aw%c%d", ep.await.kind, ep.await.blk.id)
		}
		fmt.Fprintf(&b, " r%v o%d", ep.regs, p.outstanding)
		if p.llValid {
			fmt.Fprintf(&b, " ll%d.%d", p.llLine, p.llState)
		}
		if ep.llGhostValid {
			// Encode the delta the SC atomicity check will compare — the
			// number of foreign stores serialized since the LL — not the
			// raw snapshot, which embeds an unbounded version counter.
			g := &e.ghost[ep.llWord]
			fmt.Fprintf(&b, " llg%d.%d", ep.llWord, g.version-g.writes[p.ID]-ep.llOthers)
		}
		blks := make([]int, 0, len(p.mshr))
		for id := range p.mshr {
			blks = append(blks, id)
		}
		sort.Ints(blks)
		for _, id := range blks {
			m := p.mshr[id]
			fmt.Fprintf(&b, " m%d{we%t hr%t aw%d ag%d sf%t if%t g%d", id,
				m.wantExcl, m.haveReply, m.acksWanted, m.acksGot, m.scFailed, m.invalAfterFill, m.grant)
			for _, st := range m.stores {
				fmt.Fprintf(&b, " s%d=%d", e.sys.wordOf(st.addr), st.val)
			}
			b.WriteByte('}')
		}
		for _, dm := range p.deferredReqs {
			b.WriteString(" q")
			b.WriteString(e.encMsg(dm, perm))
		}
		e.sys.proto.encodeProcExtra(e, &b, p, perm)
		b.WriteString(" t")
		for line := 0; line < e.sys.allocCursor; line++ {
			fmt.Fprintf(&b, "%d", p.priv[line])
		}
		fmt.Fprintf(&b, " d%v}", p.mem.data[:e.sys.allocCursor*e.sys.wordsPerLine])
	}
	for _, blk := range e.sys.blocks {
		e.encodeHome(&b, blk, perm)
	}
	type link struct {
		src, dst int
		q        []msg
	}
	var links []link
	for k, q := range e.chans {
		if len(q) > 0 {
			// detlint:allow — sorted below by the total (src, dst) key.
			links = append(links, link{perm[k[0]], perm[k[1]], q})
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].src != links[j].src {
			return links[i].src < links[j].src
		}
		return links[i].dst < links[j].dst
	})
	for _, l := range links {
		fmt.Fprintf(&b, "C%d>%d{", l.src, l.dst)
		for _, m := range l.q {
			b.WriteByte(' ')
			b.WriteString(e.encMsg(m, perm))
		}
		b.WriteByte('}')
	}
	// Only the ghost VALUE is future-relevant (the data-value invariant
	// compares copies against it). The version and per-process write
	// counters grow monotonically — a retried miss re-performs its
	// buffered store — so including them would keep protocol-identical
	// states distinct and make SC retry cycles explore forever; their one
	// behavioral use, the foreign-writes-since-LL count, is encoded as a
	// bounded delta in the per-process section above.
	b.WriteString("G{")
	for w := range e.ghost {
		fmt.Fprintf(&b, " %d", e.ghost[w].val)
	}
	b.WriteByte('}')
	return b.String()
}

// encMsg encodes one message, its timestamps (zero under dirinval) and an
// owner's unwritten mark among its fields.
func (e *Explorer) encMsg(m msg, perm []int) string {
	s := fmt.Sprintf("k%d.b%d.f%d.q%d.i%d.dt%d.id%d.d%v.t%d.r%d",
		m.kind, m.block, perm[m.from], perm[m.reqProc], m.invals, m.downTo, m.id, m.data, m.ts, m.rts)
	if m.unwritten {
		s += ".u"
	}
	return s
}

// encodeHome encodes the block's home: its record's owner and pending
// owner, the backend's own fields (Protocol.encodeBlock), the busy mark, the
// migratory record — last writer and reader, its two bits, and the agents
// holding the block granted unwritten, permuted like the owner — and the
// requests queued at the home, in order.
func (e *Explorer) encodeHome(b *strings.Builder, blk *blockInfo, perm []int) {
	h := e.sys.homes[blk.id]
	fmt.Fprintf(b, "B%d{o%d po%d", blk.id, permAgent(h.owner, perm), permAgent(h.pendingOwner, perm))
	e.sys.proto.encodeBlock(e, b, blk, perm)
	if h.busy {
		b.WriteString(" busy")
	}
	var granted uint64
	for a, am := range e.sys.agents {
		if am.isUnwritten(blk.id) {
			granted |= 1 << uint(a)
		}
	}
	mg := h.mig
	fmt.Fprintf(b, " w%d rd%d m%t n%t gu%x", permAgent(mg.writer, perm), permAgent(mg.reader, perm),
		mg.migratory, mg.never, remapMask(granted, perm))
	for _, qm := range h.queue {
		b.WriteString(" q")
		b.WriteString(e.encMsg(qm, perm))
	}
	b.WriteByte('}')
}

// permAgent permutes an agent index, leaving the negative "none" values.
func permAgent(a int, perm []int) int {
	if a < 0 {
		return a
	}
	return perm[a]
}

func remapMask(mask uint64, perm []int) uint64 {
	var out uint64
	for a := 0; a < len(perm); a++ {
		if mask&(1<<uint(a)) != 0 {
			out |= 1 << uint(perm[a])
		}
	}
	return out
}
