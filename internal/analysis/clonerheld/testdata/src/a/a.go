// Fixture: payload shapes mirroring the real dmem message structs.
package a

import "internal/rma"

// goodPayload mirrors dmem.payload: reference fields plus CloneMessage.
type goodPayload struct {
	deltas []float64
	norm   float64
}

func (pl *goodPayload) CloneMessage() any {
	c := *pl
	c.deltas = append([]float64(nil), pl.deltas...)
	return &c
}

// badPayload is the PR 2 bug class: a slice crosses the network with no
// way for the fault layer to deep-copy it.
type badPayload struct {
	deltas []float64
	norm   float64
}

// scalarPayload has no references: copied by value into the Message, so no
// Cloner is needed.
type scalarPayload struct {
	norm float64
	seq  int64
}

// nested hides the reference one level down; still unsafe to hold.
type nested struct {
	inner badPayload
}

func send(w *rma.World) {
	good := &goodPayload{deltas: make([]float64, 4)}
	bad := &badPayload{deltas: make([]float64, 4)}
	scalar := scalarPayload{norm: 1}

	w.Put(0, 1, 0, 48, good)
	w.Put(0, 1, 0, 48, bad) // want `payload type \*badPayload .* does not implement rma\.Cloner`
	w.Put(0, 1, 0, 24, scalar)
	w.Put(0, 1, 0, 24, &scalar)            // want `payload type \*scalarPayload .* does not implement rma\.Cloner`
	w.Put(0, 1, 0, 32, make([]float64, 4)) // want `payload type \[\]float64 .* does not implement rma\.Cloner`
	w.Put(0, 1, 0, 48, nested{})           // want `payload type nested .* does not implement rma\.Cloner`
	w.Put(0, 1, 0, 0, nil)
}
