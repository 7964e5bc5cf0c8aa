package exp

import (
	"strings"
	"testing"

	"flashsim/internal/arch"
)

// TestProfileAttribution pins the acceptance bar for the self-profiling
// harness: on a sharded-engine run the four phases {window execution,
// barrier wait, outbox drain, merge} must account for at least 95% of total
// engine wall time — the chained-timestamp design leaves no systematic gaps.
func TestProfileAttribution(t *testing.T) {
	profs, err := ProfileApps(Options{Scale: 256, Verify: true, Engine: arch.EngineSharded}, []string{"fft"})
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 1 {
		t.Fatalf("got %d profiles, want 1", len(profs))
	}
	p := profs[0]
	if p.Engine == nil {
		t.Fatal("no engine profile collected")
	}
	if cov := p.Engine.Coverage(); cov < 0.95 {
		t.Errorf("phase attribution covers %.1f%% of engine wall time, want >= 95%%", 100*cov)
	}
	var shardEvents uint64
	for i := range p.Engine.Shards {
		s := &p.Engine.Shards[i]
		shardEvents += s.Executed
		if s.EmptyWindows > s.Windows {
			t.Errorf("shard %d: empty windows %d > windows %d", i, s.EmptyWindows, s.Windows)
		}
	}
	if total := p.Run.Machine.Eng.ExecutedEvents(); shardEvents != total {
		t.Errorf("shard events sum %d != engine total %d", shardEvents, total)
	}
	if p.Host == nil || p.Host.WallNS <= 0 {
		t.Errorf("host delta %+v, want positive wall time", p.Host)
	}

	out := RenderProfiles(profs)
	for _, want := range []string{"fft", "window exec", "barrier wait", "outbox drain", "merge", "Coverage"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
