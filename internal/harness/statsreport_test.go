package harness_test

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flowguard/internal/guard"
	"flowguard/internal/harness"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// golden compares got against testdata/<name>, rewriting the file under
// -update so intentional format changes are a one-flag refresh.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output diverges from %s (run with -update if intentional):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// statsFixture fills every counter with a distinct value so the golden
// file catches a swapped or dropped line, not just a missing one.
func statsFixture() *guard.Stats {
	var s guard.Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(1000 + i))
	}
	return &s
}

func TestFormatStatsGolden(t *testing.T) {
	golden(t, "formatstats.golden", harness.FormatStats(statsFixture()))
}

// TestStatsFieldsCompleteness pins the reporters' counter view: one
// entry per guard.Stats field, in declaration order, no duplicates,
// values faithfully copied, and StatsMap agreeing with it.
func TestStatsFieldsCompleteness(t *testing.T) {
	s := statsFixture()
	fields := s.Fields()
	typ := reflect.TypeOf(*s)
	if len(fields) != typ.NumField() {
		t.Fatalf("Stats.Fields returned %d entries, guard.Stats has %d fields", len(fields), typ.NumField())
	}
	val := reflect.ValueOf(*s)
	for i, f := range fields {
		if want := typ.Field(i).Name; f.Name != want {
			t.Errorf("field %d: name %q, want declaration-order %q", i, f.Name, want)
		}
		if want := val.Field(i).Uint(); f.Value != want {
			t.Errorf("field %s: value %d, want %d", f.Name, f.Value, want)
		}
	}

	m := harness.StatsMap(s)
	if len(m) != typ.NumField() {
		t.Fatalf("StatsMap has %d keys, want %d", len(m), typ.NumField())
	}
	for _, f := range fields {
		if m[f.Name] != f.Value {
			t.Errorf("StatsMap[%s] = %d, want %d", f.Name, m[f.Name], f.Value)
		}
	}
}

func TestPhaseBreakdowns(t *testing.T) {
	rows := []harness.OverheadRow{
		{App: "nginx", Category: "server", TotalPct: 4.5, TracePct: 1.1, DecodePct: 2.2,
			CheckPct: 1.0, OtherPct: 0.2, SlowRate: 0.004, CredRatio: 0.97, BaseInstrs: 123456},
		{App: "gzip", Category: "utility", TotalPct: 1.2},
	}
	got := harness.PhaseBreakdowns(rows)
	if len(got) != 2 {
		t.Fatalf("got %d breakdowns", len(got))
	}
	p := got[0]
	if p.App != "nginx" || p.Category != "server" || p.TotalPct != 4.5 || p.TracePct != 1.1 ||
		p.DecodePct != 2.2 || p.CheckPct != 1.0 || p.OtherPct != 0.2 ||
		p.SlowRate != 0.004 || p.CredRatio != 0.97 || p.BaseInstrs != 123456 {
		t.Errorf("breakdown[0] lost a field: %+v", p)
	}
	if got[1].App != "gzip" || got[1].TotalPct != 1.2 {
		t.Errorf("breakdown[1]: %+v", got[1])
	}
}
