package solve

import (
	"context"
	"testing"
)

// BenchmarkImproveSolve measures the greedy list scheduler through its
// randomized-restart driver on a 16-GPU AllGather, the shape the flow
// backend hands it for the A100 Clos NVLink dimension.
func BenchmarkImproveSolve(b *testing.B) {
	d := allGatherDemand(16)
	d.Alpha = 0.25 // lat = 2 epochs, span = 1: pipelined relays
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		improveSolve(d, 1, 1, 16)
	}
}

// BenchmarkFlowWeights measures the flow relaxation LP that guides the
// flow backend's rounding, on the same 16-GPU AllGather.
func BenchmarkFlowWeights(b *testing.B) {
	d := allGatherDemand(16)
	d.Alpha = 0.25
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := flowWeights(context.Background(), d, 1); err != nil {
			b.Fatal(err)
		}
	}
}
