package protocol

import (
	"maps"
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

// homeEntries are the home-side handlers, written once in homeSource and
// expanded with each directory format's operations.
var homeEntries = []string{
	"pi_get_local", "pi_getx_local", "pi_wb_local", "pi_rpl_local",
	"ni_get", "ni_getx", "ni_wb", "ni_rpl",
	"ni_swb", "ni_xfer", "ni_pclr", "ni_iack",
}

// TestSharedSourceIsDirectoryFree: sharedSource defines every shared
// entry and assembles against a symbol table holding no directory field,
// pool, layout or free-list symbol, so it cannot depend on which directory
// format is running. homeSource defines every home entry and names no
// symbol or subroutine of one format only; those appear only in a format's
// prelude and operations, and each format supplies exactly the operations
// homeSource uses. Each shared and home entry label appears exactly once
// across the package's program sources, so no protocol carries its own copy.
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
	defined := func(text, label string) int {
		return len(regexp.MustCompile(`(?m)^`+label+`:`).FindAllStringIndex(text, -1))
	}
	for _, e := range sharedEntries {
		if _, ok := shared.Labels[e]; !ok {
			t.Errorf("%s: not in sharedSource", e)
		}
		if n := defined(all.String(), e); n != 1 {
			t.Errorf("%s: defined %d times across the package sources, want 1", e, n)
		}
	}
	for _, e := range homeEntries {
		if defined(homeSource, e) != 1 {
			t.Errorf("%s: not in homeSource", e)
		}
		if n := defined(all.String(), e); n != 1 {
			t.Errorf("%s: defined %d times across the package sources, want 1", e, n)
		}
	}

	formatSym := regexp.MustCompile(`\b(B_LOCAL|B_LIST|B_OVFL|NULLPTR|PTRBASE|G_FREEHEAD|(HEAD|NODE|NEXT|PRES)_\w+)\b`)
	if syms := formatSym.FindAllString(homeSource, -1); len(syms) > 0 {
		t.Errorf("homeSource names format-only symbols %v", syms)
	}
	used := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s*@(\w+)`).FindAllStringSubmatch(homeSource, -1) {
		used[m[1]] = true
	}
	for name, f := range map[string]format{"dynptr": dynptr, "bitvec": bitvec} {
		for _, m := range regexp.MustCompile(`(?m)^(\w+):`).FindAllStringSubmatch(f.prelude, -1) {
			if sub := m[1]; sub != "pp_init" && regexp.MustCompile(`\b`+sub+`\b`).MatchString(homeSource) {
				t.Errorf("homeSource names %s subroutine %s", name, sub)
			}
		}
		for op := range used {
			if _, ok := f.ops[op]; !ok {
				t.Errorf("%s: no text for @%s", name, op)
			}
		}
		for op := range f.ops {
			if !used[op] {
				t.Errorf("%s: @%s is never used", name, op)
			}
		}
	}
}

// TestUnknownDirectoryOpIsBuildError: a template line naming an operation
// the format does not supply fails the build with an error naming it.
func TestUnknownDirectoryOpIsBuildError(t *testing.T) {
	saved := dynptr
	t.Cleanup(func() { dynptr = saved })
	dynptr.ops = maps.Clone(saved.ops)
	delete(dynptr.ops, "share")
	cfg := arch.DefaultConfig()
	cfg.Nodes = 3 // a build key no other test uses: Build memoizes programs
	p, err := Build(&cfg)
	if err == nil || p != nil || !strings.Contains(err.Error(), "unknown directory operation @share") {
		t.Fatalf("Build without @share = %v, %v", p, err)
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
