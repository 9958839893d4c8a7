package core

// This file implements transparent support for the Alpha load-locked /
// store-conditional instruction pair (§3.1), the key to running unmodified
// multiprocessor binaries that synchronize through atomic read-modify-write
// sequences rather than special high-level constructs.

// LoadLocked executes an LL instruction. The in-line code loads the line's
// state into a register before the LL (§3.1.2); if the line is invalid or
// pending, the protocol fetches the latest copy first. No polls are placed
// between the LL and the SC, so incoming requests cannot change the state
// within the sequence. The reservation (llValid, llLine) is the one lock
// flag of both schemes: a store by another local process, an applied
// invalidation or the SC itself clears it. The conservative emulation
// (EmulateLLSC, the §3.1.2 footnote) saves and tests the lock flag and
// address in line, an extra LLSCExtra at the LL and two at the SC.
func (p *Proc) LoadLocked(addr uint64) uint64 {
	p.stats.N[CntLLs]++
	s := p.sys
	w := s.wordOf(addr)
	if !s.Cfg.Checks {
		p.charge(CatTask, 1)
		p.llValid = true
		p.llLine = s.lineOf(addr)
		p.llState = Exclusive
		return p.mem.data[w]
	}
	line := s.lineOf(addr)
	// A backend whose read copies can silently go stale (tardis leases)
	// drops them here, so the LL below observes current data and the SC's
	// currency check can succeed; a no-op for dirinval.
	s.proto.refreshLL(p, line)
	cost := s.Cfg.Cost.FullCheck + s.Cfg.Cost.LLSCExtra
	if s.Cfg.EmulateLLSC {
		cost += s.Cfg.Cost.LLSCExtra
	}
	p.charge(CatCheck, cost)
	st := p.priv[line]
	if st != Shared && st != Exclusive {
		p.loadMiss(line)
		st = p.priv[line]
	}
	p.llValid = true
	p.llLine = line
	p.llState = st // the state register consulted at the SC
	return p.mem.data[w]
}

// StoreCond executes an SC instruction, returning success. When the line
// was exclusive at the LL, the optimized scheme runs the sequence entirely
// in hardware; in all other cases, and always under the emulation, the
// protocol is invoked, and the store completes within the protocol on
// success (§3.1.2).
func (p *Proc) StoreCond(addr uint64, v uint64) bool {
	p.stats.N[CntSCs]++
	s := p.sys
	w := s.wordOf(addr)
	line := s.lineOf(addr)
	if !s.Cfg.Checks {
		p.charge(CatTask, 1)
		ok := p.llValid && p.llLine == line
		p.llValid = false
		if ok {
			p.mem.data[w] = v
			p.stored(line)
		}
		return ok
	}
	cost := s.Cfg.Cost.FullCheck
	if s.Cfg.EmulateLLSC {
		cost += 2 * s.Cfg.Cost.LLSCExtra
	}
	p.charge(CatCheck, cost)
	ok := p.llValid && p.llLine == line
	switch {
	case !ok:
	case p.llState == Exclusive && !s.Cfg.EmulateLLSC:
		// Fast path: still exclusive and untouched since the LL means
		// the hardware SC succeeds; any intervening write or downgrade
		// reset the lock flag and the SC fails.
		if ok = p.priv[line] == Exclusive; ok {
			p.stats.N[CntSCHardware]++
			p.performStore(addr, v, line)
		}
	default:
		p.enterProtocol()
		ok = p.storeCondProtocol(addr, v, line)
		p.exitProtocol()
	}
	p.llValid = false
	if !ok {
		p.stats.N[CntSCFailures]++
	}
	return ok
}

// storeCondProtocol is an SC's protocol half, one path for both schemes:
// it performs the store if it can make the line exclusive while the
// reservation holds, and reports whether it did.
func (p *Proc) storeCondProtocol(addr, v uint64, line int) bool {
	switch p.priv[line] {
	case Invalid, Pending:
		return false
	case Exclusive:
		// Exclusive at the LL and since (the emulation's hardware case),
		// the store completes here. A line that became exclusive under
		// us (e.g. a local fill since the LL) fails conservatively.
		if p.llState != Exclusive {
			return false
		}
		p.performStore(addr, v, line)
		return true
	}
	// The private entry is shared, but the node may hold a newer state
	// (private tables are lazily filled from the shared table — §2.3).
	switch p.mem.table[line] {
	case Exclusive:
		// The node owns the line: complete the SC locally, if the
		// reservation survives the fill (no local store slips in while
		// the fill is charged).
		if !p.localFill(line) || p.priv[line] != Exclusive || !p.llValid {
			return false
		}
		p.performStore(addr, v, line)
		return true
	case Pending, Invalid:
		// A transition is in flight or the node lost the line: some write
		// serialized ahead of this SC.
		return false
	}
	return p.scUpgrade(addr, v, line)
}

// scUpgrade asks the home for an SC upgrade of line, which fails if p is no
// longer a sharer (§3.1.2). The store rides the grant, as a write miss's
// rides its fill: finishMiss performs it only if the reservation held until
// then, and latches the outcome.
func (p *Proc) scUpgrade(addr, v uint64, line int) bool {
	blk := p.sys.blockOf(line)
	if !p.tryBeginTransition(blk, CatWriteStall) {
		// Another local transition is in flight for this block; a write
		// is serializing ahead of this SC, which therefore fails.
		return false
	}
	p.issueMiss(blk, true, []pendingStore{{addr, v}}, true)
	p.stallWhile(CatWriteStall, func() bool { return p.mshr[blk.id] != nil })
	return !p.scMissFailed
}

// PrefetchExclusive issues a non-binding exclusive prefetch; the rewriter
// places one before a loop containing an LL/SC sequence so a successful
// acquire needs only a single remote miss (§3.1.2). It is issued only once
// per loop to avoid livelock among competing sequences.
func (p *Proc) PrefetchExclusive(addr uint64) {
	s := p.sys
	if !s.Cfg.Checks || !s.Cfg.PrefetchExclusive {
		return
	}
	p.stats.N[CntPrefetches]++
	line := s.lineOf(addr)
	p.charge(CatCheck, s.Cfg.Cost.FullCheck)
	if p.priv[line] == Exclusive || p.priv[line] == Pending {
		return
	}
	p.enterProtocol()
	defer p.exitProtocol()
	if p.mem.table[line] == Pending {
		return // somebody local is already fetching
	}
	if p.mem.table[line] == Exclusive {
		p.localFill(line)
		return
	}
	blk := s.blockOf(line)
	if p.mshr[blk.id] != nil {
		return
	}
	if !p.tryBeginTransition(blk, CatCheck) {
		return // somebody else is transitioning this block; skip
	}
	p.stats.N[CntWriteMisses]++
	p.issueMiss(blk, true, nil, false)
	// Non-binding and non-blocking: the following LL finds the line
	// pending and waits for the exclusive fill.
}
