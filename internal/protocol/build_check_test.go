package protocol

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"sort"
	"strings"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/ppisa"
)

// imageDigests pins the six scheduled handler images of the default machine.
// A refactor of the handler text must leave every one unchanged; a handler
// edit that means to change what the PP executes updates its digests here,
// together with the per-app cycle deltas it causes.
var imageDigests = map[arch.Protocol]map[arch.PPMode]string{
	arch.ProtoDynPtr: {
		arch.PPDualIssue:   "d6577d88faf562dd",
		arch.PPSingleIssue: "c3bb48c0e71d5710",
		arch.PPNoSpecial:   "c1a56b74fc5e7759",
	},
	arch.ProtoBitVector: {
		arch.PPDualIssue:   "5a4095b0a45555f4",
		arch.PPSingleIssue: "76a1d7f8ba858c10",
		arch.PPNoSpecial:   "538dbd8acba2d228",
	},
}

// TestBuildAssembles builds every protocol in every PP mode and compares
// each image's digest with the pinned one.
func TestBuildAssembles(t *testing.T) {
	for proto, modes := range imageDigests {
		for mode, want := range modes {
			cfg := arch.DefaultConfig()
			cfg.Protocol, cfg.PPMode = proto, mode
			p, err := Build(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := imageDigest(p.Code); got != want {
				t.Errorf("%v %v: image digest %s, pinned %s (pairs=%d entries=%d src=%d)",
					proto, mode, got, want, len(p.Code.Pairs), len(p.Code.Entries), p.Code.SrcInstrs)
			}
		}
	}
}

// imageDigest hashes what a PP executes: every scheduled pair (without the
// spelling of a branch's target label, which Target already resolves), the
// entry table and the source instruction count.
func imageDigest(p *ppisa.Program) string {
	h := sha256.New()
	for _, pr := range p.Pairs {
		a, b := pr.A, pr.B
		a.Sym, b.Sym = "", ""
		fmt.Fprintf(h, "%#v %#v\n", a, b)
	}
	names := make([]string, 0, len(p.Entries))
	for name := range p.Entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d\n", name, p.Entries[name])
	}
	fmt.Fprintf(h, "mode=%d src=%d\n", p.Mode, p.SrcInstrs)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestBuildRejectsMissingEntry pins that a program lacking an entry some
// jump-table slot dispatches to fails to build, naming the slot and the
// entry, rather than building and failing when that message first arrives.
func TestBuildRejectsMissingEntry(t *testing.T) {
	cfg := arch.DefaultConfig()
	p, err := Build(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProgram(p.Source, cfg.PPMode, p.Layout); err != nil {
		t.Fatalf("rebuilding the default program: %v", err)
	}
	src := *p.Source
	src.Labels = maps.Clone(src.Labels)
	delete(src.Labels, "ni_pclr")
	_, err = NewProgram(&src, cfg.PPMode, p.Layout)
	if err == nil || !strings.Contains(err.Error(), `no handler entry "ni_pclr"`) || !strings.Contains(err.Error(), "PCLR") {
		t.Fatalf("building without ni_pclr: err = %v, want the PCLR slot's missing entry named", err)
	}
}
