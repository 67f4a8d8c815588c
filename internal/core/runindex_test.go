package core

import (
	"math/rand"
	"reflect"
	"testing"

	"c2mn/internal/features"
	"c2mn/internal/indoor"
)

// TestWorkspaceIndexStaysInStep: whatever mix of ICM, block-ICM and
// annealed phases ran — and after a whole Annotate, annealed restart
// included — the workspace's maintained run index equals one rebuilt
// from its labels.
func TestWorkspaceIndexStaysInStep(t *testing.T) {
	space := testSpace(t)
	rng := rand.New(rand.NewSource(19))
	check := func(ws *Workspace, what string) {
		t.Helper()
		var fresh features.RunIndex
		fresh.Reset(ws.ctx, ws.R, ws.E)
		if !reflect.DeepEqual(&ws.ix, &fresh) {
			t.Fatalf("%s: maintained index differs from a rebuild (R=%v E=%v)", what, ws.R, ws.E)
		}
	}
	for trial := 0; trial < 20; trial++ {
		m := randomModel(rng)
		ex, err := features.NewExtractor(space, m.Params)
		if err != nil {
			t.Fatal(err)
		}
		ls := synthSequence("x", indoor.RegionID(rng.Intn(3)), indoor.RegionID(rng.Intn(3)), rng)
		if trial%5 == 0 {
			ls.P.Records = ls.P.Records[:1+trial%2] // n = 1 and n = 2
		}
		ctx := ex.NewSeqContext(&ls.P, nil)
		ws := NewWorkspace()
		ws.Reset(m, ctx)
		for step := 0; step < 6; step++ {
			switch rng.Intn(3) {
			case 0:
				ws.icm(1 + rng.Intn(5))
			case 1:
				ws.blockICM(1 + rng.Intn(5))
			default:
				ws.anneal(InferOptions{AnnealSweeps: 1 + rng.Intn(3), Seed: rng.Int63()})
			}
			check(ws, "after a phase")
		}
		ws.Annotate(m, ctx, InferOptions{AnnealSweeps: trial % 3, Seed: int64(trial)})
		check(ws, "after Annotate")
	}
}
