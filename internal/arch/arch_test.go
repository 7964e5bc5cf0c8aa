package arch

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddrGeometry(t *testing.T) {
	a := Addr(0x12345)
	if a.Line() != 0x12345>>7 {
		t.Fatalf("Line = %#x", a.Line())
	}
	if a.LineAddr() != 0x12345&^127 {
		t.Fatalf("LineAddr = %#x", a.LineAddr())
	}
	if a.Page() != 0x12 {
		t.Fatalf("Page = %#x", a.Page())
	}
}

func TestHomeOfPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.MemBytesPerNode = 1 << 20
	for n := 0; n < 4; n++ {
		base := cfg.NodeBase(NodeID(n))
		if cfg.HomeOf(base) != NodeID(n) || cfg.HomeOf(base+Addr(cfg.MemBytesPerNode-1)) != NodeID(n) {
			t.Fatalf("node %d boundaries misattributed", n)
		}
	}
	if cfg.LocalLine(cfg.NodeBase(2)+256) != 2 {
		t.Fatalf("LocalLine = %d", cfg.LocalLine(cfg.NodeBase(2)+256))
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CacheSize = 100 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.MDCSize = 999 },
		func(c *Config) { c.MemBytesPerNode = 5000 },
	}
	for i, mut := range cases {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}

	// Both caches obey one geometry rule: at least one way, and a
	// power-of-two set count. Every violation is an error naming the field
	// and its value, never a panic or a division by zero.
	for _, tc := range []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) { c.CacheWays = 0 }, "CacheWays 0"},
		{func(c *Config) { c.MDCWays = 0 }, "MDCWays 0"},
		{func(c *Config) { c.CacheWays = -2 }, "CacheWays -2"},
		{func(c *Config) { c.CacheSize = 393216 }, "CacheSize 393216"}, // 1 536 sets
		{func(c *Config) { c.MDCSize = 49152 }, "MDCSize 49152"},       // 192 sets
		{func(c *Config) { c.CacheSize = 0 }, "CacheSize 0"},
		{func(c *Config) { c.CacheWays = 3 }, "CacheSize 1048576"}, // not whole 3-way sets
	} {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.want, err, tc.want)
		}
	}
	for _, ok := range []func(*Config){
		func(c *Config) { c.CacheSize = 4 << 10 },
		func(c *Config) { c.CacheSize, c.CacheWays = 1<<20, 1 },
		func(c *Config) { c.MDCSize, c.MDCWays = 16<<10, 4 },
		func(c *Config) { c.CacheSize, c.CacheWays = 3<<14, 3 },   // 128 sets of 3 ways
		func(c *Config) { c.Kind = KindIdeal; c.MDCSize = 49152 }, // no MDC on the ideal machine
	} {
		cfg := DefaultConfig()
		ok(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid geometry rejected: %v", err)
		}
	}
}

func TestMsgClassification(t *testing.T) {
	// Replies and data-carriers per the virtual-network split.
	for _, mt := range []MsgType{MsgPUT, MsgPUTX, MsgNAK, MsgIACK, MsgSWB, MsgXFER, MsgPCLR} {
		if !mt.IsReply() {
			t.Fatalf("%v should be a reply", mt)
		}
	}
	for _, mt := range []MsgType{MsgGET, MsgGETX, MsgWB, MsgRPL, MsgFwdGET, MsgFwdGETX, MsgINVAL} {
		if mt.IsReply() {
			t.Fatalf("%v should be a request", mt)
		}
	}
	for _, mt := range []MsgType{MsgWB, MsgPUT, MsgPUTX, MsgSWB, MsgPIData, MsgPCData} {
		if !mt.CarriesData() {
			t.Fatalf("%v should carry data", mt)
		}
	}
	if MsgGET.CarriesData() || MsgNAK.CarriesData() {
		t.Fatal("header-only message marked as data-carrying")
	}
}

func TestStringers(t *testing.T) {
	if MsgGET.String() != "GET" || MsgPCLR.String() != "PCLR" {
		t.Fatal("MsgType names wrong")
	}
	if MissLocalClean.String() != "Local Clean" {
		t.Fatal("MissClass names wrong")
	}
	if KindFLASH.String() != "FLASH" || KindIdeal.String() != "ideal" {
		t.Fatal("MachineKind names wrong")
	}
	if ProtoBitVector.String() != "bit-vector" {
		t.Fatal("Protocol names wrong")
	}
	for _, p := range []Placement{PlaceRoundRobin, PlaceFirstTouch, PlaceNodeZero} {
		if p.String() == "" {
			t.Fatal("empty placement name")
		}
	}
	for _, m := range []PPMode{PPDualIssue, PPSingleIssue, PPNoSpecial} {
		if m.String() == "" {
			t.Fatal("empty PP mode name")
		}
	}
}

// roundTrip checks Parse(v.String()) == v for every value of one backend
// enum, and that an unknown name is rejected with the accepted set named.
func roundTrip[T interface {
	comparable
	fmt.Stringer
}](t *testing.T, parse func(string) (T, error), vals ...T) {
	t.Helper()
	for _, v := range vals {
		if got, err := parse(v.String()); err != nil || got != v {
			t.Errorf("parse(%q) = %v, %v", v, got, err)
		}
	}
	for _, bad := range []string{"", "auto", "bogus"} {
		_, err := parse(bad)
		if err == nil {
			t.Errorf("%T: parse(%q) accepted", vals[0], bad)
			continue
		}
		for _, v := range vals {
			if !strings.Contains(err.Error(), v.String()) {
				t.Errorf("error %q does not name %q", err, v)
			}
		}
	}
}

func TestParseBackendFlagsRoundTrip(t *testing.T) {
	roundTrip(t, ParseEngineKind, EngineSeq, EngineSharded)
	roundTrip(t, ParseEngineSync, EngineSyncBarrier, EngineSyncWatermark)
	roundTrip(t, ParseNetModel, NetUniform, NetMesh)
	// The zero Config is the default machine: sequential engine, barrier
	// sync, compiled dispatch, uniform network, sampling off.
	var c Config
	if c.Engine != EngineSeq || c.EngineSync != EngineSyncBarrier ||
		c.PPDispatch != PPDispatchCompiled || c.NetModel != NetUniform || c.Sample.Enabled() {
		t.Errorf("zero Config selects %v/%v/%v/%v sample %v", c.Engine, c.EngineSync, c.PPDispatch, c.NetModel, c.Sample)
	}
}

// TestParseProtocol: the -protocol flag names map to the two handler
// programs, and anything else is rejected with the accepted set named.
func TestParseProtocol(t *testing.T) {
	for s, want := range map[string]Protocol{"dynptr": ProtoDynPtr, "bitvec": ProtoBitVector} {
		if got, err := ParseProtocol(s); err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "bit-vector", "bogus"} {
		if _, err := ParseProtocol(bad); err == nil || !strings.Contains(err.Error(), "want dynptr or bitvec") {
			t.Errorf("ParseProtocol(%q) error = %v; want one naming dynptr and bitvec", bad, err)
		}
	}
}

// TestParsePPMode: the mode names flashsim -ppmode and ppasm -mode share
// map to the three Section 5.3 variants, and anything else is rejected with
// the accepted set named.
func TestParsePPMode(t *testing.T) {
	for s, want := range map[string]PPMode{"dual": PPDualIssue, "single": PPSingleIssue, "dlx": PPNoSpecial} {
		if got, err := ParsePPMode(s); err != nil || got != want {
			t.Errorf("ParsePPMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "dual-issue", "bogus"} {
		if _, err := ParsePPMode(bad); err == nil || !strings.Contains(err.Error(), "want dual, single or dlx") {
			t.Errorf("ParsePPMode(%q) error = %v; want one naming dual, single and dlx", bad, err)
		}
	}
}

// Property: every address belongs to exactly one home and LocalLine is
// consistent with NodeBase.
func TestHomePartitionProperty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.MemBytesPerNode = 1 << 20
	f := func(raw uint32) bool {
		a := Addr(uint64(raw) % (8 << 20))
		h := cfg.HomeOf(a)
		off := uint64(a) - uint64(cfg.NodeBase(h))
		return off < uint64(cfg.MemBytesPerNode) &&
			cfg.LocalLine(a) == off>>LineShift
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMachineKindUnmarshalJSON accepts each defined kind by name or number
// and rejects everything else: an explore cache entry naming kind 7 is an
// error, not an ideal report.
func TestMachineKindUnmarshalJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want MachineKind
		ok   bool
	}{
		{`"FLASH"`, KindFLASH, true},
		{`"ideal"`, KindIdeal, true},
		{`0`, KindFLASH, true},
		{`1`, KindIdeal, true},
		{`2`, 0, false},
		{`7`, 0, false},
		{`256`, 0, false},
		{`-1`, 0, false},
		{`"flash"`, 0, false},
		{`"1"`, 0, false},
		{`1x`, 0, false},
		{`null`, 0, false},
	} {
		var k MachineKind
		err := json.Unmarshal([]byte(tc.in), &k)
		if (err == nil) != tc.ok || (tc.ok && k != tc.want) {
			t.Errorf("%s: got %v, %v; want %v, ok=%v", tc.in, k, err, tc.want, tc.ok)
		}
	}
	var c struct{ Kind MachineKind }
	if err := json.Unmarshal([]byte(`{"Kind":7}`), &c); err == nil {
		t.Errorf("kind 7 decoded as %v", c.Kind)
	}
}
