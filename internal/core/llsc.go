package core

// This file implements transparent support for the Alpha load-locked /
// store-conditional instruction pair (§3.1), the key to running unmodified
// multiprocessor binaries that synchronize through atomic read-modify-write
// sequences rather than special high-level constructs.

// LoadLocked executes an LL instruction. The in-line code loads the line's
// state into a register before the LL (§3.1.2); if the line is invalid or
// pending, the protocol fetches the latest copy first. No polls are placed
// between the LL and the SC, so incoming requests cannot change the state
// within the sequence.
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
	if s.Cfg.EmulateLLSC {
		// Conservative emulation of the lock-flag and lock-address
		// (§3.1.2): save the address and set the flag on every LL.
		p.charge(CatCheck, s.Cfg.Cost.FullCheck+s.Cfg.Cost.LLSCExtra*2)
		p.emuLockFlag = true
		p.emuLockLine = line
		if st := p.priv[line]; st != Shared && st != Exclusive {
			p.loadMiss(line)
		}
		return p.mem.data[w]
	}
	p.charge(CatCheck, s.Cfg.Cost.FullCheck+s.Cfg.Cost.LLSCExtra)
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
// was exclusive at the LL, the sequence runs entirely in hardware; in all
// other cases the protocol is invoked, and the store completes within the
// protocol on success (§3.1.2).
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
			p.resetLocalLLs(line)
		}
		return ok
	}
	if s.Cfg.EmulateLLSC {
		return p.storeCondEmulated(addr, v, line)
	}
	p.charge(CatCheck, s.Cfg.Cost.FullCheck)
	if p.llState == Exclusive {
		// Fast path: still exclusive and untouched since the LL means
		// the hardware SC succeeds; any intervening write or downgrade
		// reset the lock flag and the SC fails.
		ok := p.llValid && p.priv[line] == Exclusive && p.llLine == line
		p.llValid = false
		if ok {
			p.stats.N[CntSCHardware]++
			p.performStore(addr, v, line)
			return true
		}
		p.stats.N[CntSCFailures]++
		return false
	}
	// Slow path: the protocol handles the SC miss. The lock flag must
	// still be set: a store by another local process (which the hardware
	// SC would catch) or an applied invalidation resets it.
	if !p.llValid || p.llLine != line {
		p.llValid = false
		p.stats.N[CntSCFailures]++
		return false
	}
	p.llValid = false
	p.enterProtocol()
	defer p.exitProtocol()
	switch p.priv[line] {
	case Invalid, Pending:
		p.stats.N[CntSCFailures]++
		return false
	case Exclusive:
		// The line became exclusive under us (e.g. a local fill since
		// the LL); the conservative choice is failure.
		p.stats.N[CntSCFailures]++
		return false
	}
	// The private entry is shared, but the node may hold a newer state
	// (private tables are lazily filled from the shared table — §2.3).
	if s.Cfg.SMP {
		switch p.mem.table[line] {
		case Exclusive:
			// The node owns the line: complete the SC locally, if the
			// reservation survives the fill (no local store slips in
			// while the fill is charged).
			p.scWatchValid = true
			p.scWatchLine = line
			ok := p.localFill(line) && p.priv[line] == Exclusive && p.scWatchValid
			p.scWatchValid = false
			if ok {
				p.performStore(addr, v, line)
				return true
			}
			p.stats.N[CntSCFailures]++
			return false
		case Pending, Invalid:
			// A transition is in flight or the node lost the line: some
			// write serialized ahead of this SC.
			p.stats.N[CntSCFailures]++
			return false
		}
	}
	// Shared: the store is performed within the protocol once the upgrade
	// succeeds.
	if !p.scUpgrade(line) {
		return false
	}
	p.performStore(addr, v, line)
	return true
}

// scUpgrade asks the home for an SC upgrade of line, which fails if p is no
// longer a sharer (§3.1.2), and reports whether the SC may complete. The
// reservation can still be broken while the request is in flight — by
// another local process's store or by an invalidation — so it is
// re-checked once the reply is in. A failure is counted.
func (p *Proc) scUpgrade(line int) bool {
	blk := p.sys.blockOf(line)
	if !p.tryBeginTransition(blk, CatWriteStall) {
		// Another local transition is in flight for this block; a write
		// is serializing ahead of this SC, which therefore fails.
		p.stats.N[CntSCFailures]++
		return false
	}
	p.scWatchValid = true
	p.scWatchLine = line
	p.issueMissKind(blk, true, nil, true)
	p.stallWhile(CatWriteStall, func() bool { return p.mshr[blk.id] != nil })
	ok := !p.scMissFailed && p.scWatchValid && p.priv[line] == Exclusive
	p.scWatchValid = false
	if !ok {
		p.stats.N[CntSCFailures]++
	}
	return ok
}

// storeCondEmulated is the §3.1.2-footnote fallback for deprecated LL/SC
// sequences: it emulates the lock flag directly.
func (p *Proc) storeCondEmulated(addr, v uint64, line int) bool {
	s := p.sys
	p.charge(CatCheck, s.Cfg.Cost.FullCheck+s.Cfg.Cost.LLSCExtra*2)
	if !p.emuLockFlag || p.emuLockLine != line {
		p.emuLockFlag = false
		p.stats.N[CntSCFailures]++
		return false
	}
	p.emuLockFlag = false
	p.enterProtocol()
	defer p.exitProtocol()
	// Obtain exclusive ownership, then re-check the reservation: a store
	// or invalidation during the upgrade fails the SC.
	if p.priv[line] != Exclusive {
		filled := s.Cfg.SMP && p.mem.table[line] == Exclusive && p.localFill(line) && p.priv[line] == Exclusive
		if !filled && !p.scUpgrade(line) {
			return false
		}
	}
	p.performStore(addr, v, line)
	return true
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
	if s.Cfg.SMP {
		if p.mem.table[line] == Pending {
			return // somebody local is already fetching
		}
		if p.mem.table[line] == Exclusive {
			p.localFill(line)
			return
		}
	}
	blk := s.blockOf(line)
	if p.mshr[blk.id] != nil {
		return
	}
	if !p.tryBeginTransition(blk, CatCheck) {
		return // somebody else is transitioning this block; skip
	}
	p.stats.N[CntWriteMisses]++
	p.issueMiss(blk, true, nil)
	// Non-binding and non-blocking: the following LL finds the line
	// pending and waits for the exclusive fill.
}
