// Package a is the root half of the cross-package detreach fixture.
package a

import "crosspkg/b"

// Run reaches both of b's clock reads: one through a static call, one
// through interface dispatch.
//
//diversify:det-root fixture entry point
func Run(c b.Clock) b.Tick {
	return b.Stamp() + c.Now()
}
