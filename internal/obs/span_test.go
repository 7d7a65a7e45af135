package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSpanNestingAndOrdering pins the timeline shape: spans appear in start
// order, nested spans carry their parent's depth + 1, and sibling spans
// after a nested one return to the parent depth.
func TestSpanNestingAndOrdering(t *testing.T) {
	tr := NewTrace("req-1", "fig1")
	ctx := WithTrace(context.Background(), tr)

	cctx, end := StartSpan(ctx, StageCompile)
	_, endInner := StartSpan(cctx, StageSynth)
	endInner()
	end()
	_, endExec := StartSpan(ctx, StageExecute)
	endExec()
	tr.Finish()

	s := tr.Summary()
	if s.ID != "req-1" || s.Name != "fig1" {
		t.Fatalf("identity %+v", s)
	}
	want := []struct {
		name  string
		depth int
	}{{"compile", 0}, {"synth", 1}, {"execute", 0}}
	if len(s.Spans) != len(want) {
		t.Fatalf("%d spans, want %d: %+v", len(s.Spans), len(want), s.Spans)
	}
	for i, w := range want {
		sp := s.Spans[i]
		if sp.Name != w.name || sp.Depth != w.depth {
			t.Errorf("span %d = %+v, want %s at depth %d", i, sp, w.name, w.depth)
		}
		if sp.MS < 0 || sp.StartMS < 0 {
			t.Errorf("span %d has negative timing: %+v", i, sp)
		}
		if i > 0 && sp.StartMS < s.Spans[i-1].StartMS {
			t.Errorf("span %d starts before span %d", i, i-1)
		}
	}
	if s.WallMS <= 0 {
		t.Errorf("wall %.3fms, want > 0", s.WallMS)
	}
}

// TestSpanWithoutTrace pins the no-op contract: StartSpan and TimeStage on
// a bare context must not panic and still feed the global stage histogram.
func TestSpanWithoutTrace(t *testing.T) {
	before := stageHists[StageCompile].Count()
	_, end := StartSpan(context.Background(), StageCompile)
	end()
	TimeStage(context.Background(), StageCompile)()
	if got := stageHists[StageCompile].Count(); got != before+2 {
		t.Errorf("stage histogram count %d, want %d", got, before+2)
	}
}

// TestTimeStageAggregates pins the parallel-cell path: concurrent TimeStage
// observations fold into per-stage counts and totals on one trace.
func TestTimeStageAggregates(t *testing.T) {
	tr := NewTrace("req-2", "sweep")
	ctx := WithTrace(context.Background(), tr)
	const cells = 32
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := TimeStage(ctx, StageEvaluate)
			time.Sleep(time.Millisecond)
			done()
		}()
	}
	wg.Wait()
	tr.Finish()
	s := tr.Summary()
	agg, ok := s.Stages[StageEvaluate.String()]
	if !ok || agg.Count != cells {
		t.Fatalf("evaluate stage %+v, want count %d", agg, cells)
	}
	if agg.MS < cells { // every cell slept >= 1ms
		t.Errorf("evaluate total %.3fms, want >= %d", agg.MS, cells)
	}
}

// TestObserveResolve pins the per-origin resolver metrics and the
// trace-side resolve aggregates.
func TestObserveResolve(t *testing.T) {
	tr := NewTrace("req-3", "x")
	ctx := WithTrace(context.Background(), tr)
	before := resolveCounts[OriginSynth].Value()
	ObserveResolve(ctx, OriginSynth, 2*time.Millisecond)
	if got := resolveCounts[OriginSynth].Value(); got != before+1 {
		t.Errorf("resolve counter %d, want %d", got, before+1)
	}
	tr.Finish()
	if agg := tr.Summary().Stages["resolve:synth"]; agg.Count != 1 || agg.MS < 1 {
		t.Errorf("trace resolve agg %+v", agg)
	}
}

// TestTraceLog pins both /tracez views: recent keeps the newest N in
// newest-first order; slowest keeps the largest walls in descending order
// regardless of arrival order.
func TestTraceLog(t *testing.T) {
	l := NewTraceLog(3)
	mk := func(i int, wall time.Duration) *Trace {
		tr := NewTrace(fmt.Sprintf("r%d", i), "t")
		tr.mu.Lock()
		tr.done, tr.wall = true, wall
		tr.mu.Unlock()
		return tr
	}
	walls := []time.Duration{5, 1, 9, 2, 7, 3} // ms-scale ordering is all that matters
	for i, w := range walls {
		l.Record(mk(i, w*time.Millisecond))
	}
	recent, slowest := l.Snapshot()
	if len(recent) != 3 || recent[0].ID != "r5" || recent[1].ID != "r4" || recent[2].ID != "r3" {
		t.Errorf("recent view %+v", recent)
	}
	if len(slowest) != 3 || slowest[0].ID != "r2" || slowest[1].ID != "r4" || slowest[2].ID != "r0" {
		t.Errorf("slowest view %+v", slowest)
	}
	for i := 1; i < len(slowest); i++ {
		if slowest[i].WallMS > slowest[i-1].WallMS {
			t.Errorf("slowest not descending: %+v", slowest)
		}
	}
}
