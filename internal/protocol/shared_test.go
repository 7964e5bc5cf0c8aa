package protocol

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/ppisa"
)

// sharedEntries are the handlers that never touch a directory, written once
// in sharedSource and run by both programs.
var sharedEntries = []string{
	"nak_pi", "nak_net",
	"pi_get_remote", "pi_getx_remote", "pi_wb_remote", "pi_rpl_remote",
	"ni_fwd_get", "ni_fwd_getx", "fwd_gone", "ni_inval",
	"ni_put", "ni_putx", "ni_nak",
}

// TestSharedSourceIsDirectoryFree: sharedSource defines every shared
// entry and assembles against a symbol table holding no directory field,
// pool, layout or free-list symbol, so it cannot depend on which directory
// format is running; and each shared entry label appears exactly once across
// the package's program sources, so no protocol carries its own copy.
func TestSharedSourceIsDirectoryFree(t *testing.T) {
	cfg := arch.DefaultConfig()
	syms := NewLayout(&cfg).Symbols()
	dirSym := regexp.MustCompile(`^(B|HEAD|ACK|OWNER|PRES|NODE|NEXT)_|^(NULLPTR|DIRBASE|PTRBASE|G_FREEHEAD)$`)
	for name := range syms {
		if dirSym.MatchString(name) {
			delete(syms, name)
		}
	}
	shared, err := ppisa.Assemble(sharedSource, syms)
	if err != nil {
		t.Fatal(err)
	}

	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	for _, f := range files {
		if name := f.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			buf, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			all.Write(buf)
		}
	}
	for _, e := range sharedEntries {
		if _, ok := shared.Labels[e]; !ok {
			t.Errorf("%s: not in sharedSource", e)
		}
		if n := len(regexp.MustCompile(`(?m)^`+e+`:`).FindAllStringIndex(all.String(), -1)); n != 1 {
			t.Errorf("%s: defined %d times across the package sources, want 1", e, n)
		}
	}
}

// TestSharedEntriesScheduleIdentically: in every PP mode, each shared
// entry's scheduled pairs, with branch targets taken relative to the entry,
// are the same under both protocols — the programs differ only in where the
// shared code lands.
func TestSharedEntriesScheduleIdentically(t *testing.T) {
	for _, mode := range []arch.PPMode{arch.PPDualIssue, arch.PPSingleIssue, arch.PPNoSpecial} {
		var code [2]map[string][]ppisa.Pair
		for i, proto := range []arch.Protocol{arch.ProtoDynPtr, arch.ProtoBitVector} {
			cfg := arch.DefaultConfig()
			cfg.Protocol, cfg.PPMode = proto, mode
			p, err := Build(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			code[i] = entryPairs(p.Code)
		}
		for _, e := range sharedEntries {
			a, b := code[0][e], code[1][e]
			if len(a) == 0 || len(a) != len(b) {
				t.Errorf("%v %s: %d pairs under dynptr, %d under bitvec", mode, e, len(a), len(b))
				continue
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%v %s pair %d: dynptr %v | %v, bitvec %v | %v", mode, e, i, &a[i].A, &a[i].B, &b[i].A, &b[i].B)
					break
				}
			}
		}
	}
}

// entryPairs cuts a scheduled program at its entry points and returns each
// entry's pairs, with every resolved label target made relative to the
// entry's first pair.
func entryPairs(p *ppisa.Program) map[string][]ppisa.Pair {
	starts := make([]int, 0, len(p.Entries))
	for _, pc := range p.Entries {
		starts = append(starts, pc)
	}
	sort.Ints(starts)
	out := map[string][]ppisa.Pair{}
	for name, pc := range p.Entries {
		end := len(p.Pairs)
		if i := sort.SearchInts(starts, pc+1); i < len(starts) {
			end = starts[i]
		}
		pairs := append([]ppisa.Pair(nil), p.Pairs[pc:end]...)
		for i := range pairs {
			for _, in := range []*ppisa.Instr{&pairs[i].A, &pairs[i].B} {
				if in.Sym != "" {
					in.Target -= pc
				}
			}
		}
		out[name] = pairs
	}
	return out
}
