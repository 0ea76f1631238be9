// Fixture proving nilguard scoping: cmd/ packages are exempt —
// the CLI always wires a concrete sink, so unguarded emissions there
// are fine.
package main

import "diversify/internal/telemetry"

func emit(sink telemetry.Sink, ev telemetry.Event) {
	sink.Emit(ev)
}
