package harness

import (
	"sync"
	"testing"
)

// TestEnginesAreIsolated pins what replacing the process globals with a
// value bought: two differently configured Engines in one process, rendering
// the quick suite at the same time, produce the same bytes while each one's
// counters describe only its own configuration and its own lookups. Run
// under -race in CI.
func TestEnginesAreIsolated(t *testing.T) {
	t.Parallel()
	synth := &Engine{}
	oracle := &Engine{Store: openStore(t, t.TempDir()), DisableSynth: true}
	engines := []*Engine{synth, oracle}
	outs := make([]string, len(engines))
	var wg sync.WaitGroup
	for i, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = renderSuite(t, eng, 2)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if outs[0] != outs[1] {
		t.Fatal("synthesizing and recording Engines rendered different artifacts")
	}
	s, o := synth.Stats(), oracle.Stats()
	if s.SynthHits == 0 || s.Records != 0 || s.DiskSaves+s.DiskHits+s.DiskMisses != 0 {
		t.Fatalf("default Engine: want synthesis only and no disk tier: %+v", s)
	}
	if o.SynthHits != 0 || o.Records == 0 || o.DiskSaves == 0 {
		t.Fatalf("synthesis-off Engine with a store: want recordings written through: %+v", o)
	}
	// Both ran the same plans, so each looked up the same keys the same
	// number of times: every distinct schedule resolved once per Engine, and
	// every repeat was a hit on that Engine's own memory tier. A shared
	// cache would leave one side with fewer resolutions and more hits.
	if s.SynthHits != o.Records || s.CachedTraces != o.CachedTraces || s.MemoryHits != o.MemoryHits {
		t.Fatalf("Engines saw each other's traces:\ndefault %+v\noracle  %+v", s, o)
	}
}
