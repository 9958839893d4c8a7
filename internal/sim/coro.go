//go:build go1.23

package sim

import "iter"

// switchTo runs p, creating its coroutine at the first resume, until it
// yields or exits. (The module's language version predates package iter,
// hence the build constraint.)
func (p *Proc) switchTo() {
	if p.resume == nil {
		p.resume, p.stop = iter.Pull(p.run)
	}
	p.resume()
}
