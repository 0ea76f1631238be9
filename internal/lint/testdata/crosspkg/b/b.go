// Package b is the callee half of the cross-package detreach fixture:
// its wall-clock reads are reachable only from a det-root in package a.
package b

import "time"

// Tick is a module type in the Clock signature, so resolving a's
// interface call to Wall.Now needs a's view of Tick to be b's own.
type Tick int64

// Clock is dispatched through from package a.
type Clock interface{ Now() Tick }

// Wall implements Clock with a wall-clock read.
type Wall struct{}

func (Wall) Now() Tick {
	return Tick(time.Now().UnixNano()) // want "via a.Run -> b.(Wall).Now"
}

// Stamp is called statically from package a.
func Stamp() Tick {
	return Tick(time.Now().UnixNano()) // want "via a.Run -> b.Stamp"
}
