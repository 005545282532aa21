package harness

import (
	"reflect"
	"strings"
	"testing"

	"flowguard/internal/guard"
	"flowguard/internal/oracle"
)

// guardOnlyStats are the guard.Stats counters the reference oracle does
// not model, each with the reason. A counter added to guard.Stats fails
// TestStatsOracleTwins until it is either given an oracle.Stats twin
// (and so compared at every differential run) or listed here.
var guardOnlyStats = map[string]string{
	"DecodeCycles":       "cycle meter: production cost model, no oracle analogue",
	"CheckCycles":        "cycle meter: production cost model, no oracle analogue",
	"OtherCycles":        "cycle meter: production cost model, no oracle analogue",
	"SlowCycles":         "cycle meter: production cost model (compared per check against the oracle's FlowInstrs)",
	"BytesScanned":       "production cost bookkeeping: the oracle rescans its whole view",
	"CacheHits":          "production shortcut: the oracle keeps no fast-path cache",
	"AsyncWindows":       "asynchronous-pipeline scheduling: the oracle always decodes synchronously",
	"AsyncMaxLag":        "asynchronous-pipeline scheduling: the oracle always decodes synchronously",
	"BackpressureStalls": "always zero: the async pipeline has no producer stall; kept for perfbench's report",
	"WatchdogSheds":      "always zero: the async pipeline has no watchdog; kept for perfbench's report",
	"WorkerCrashes":      "asynchronous-pipeline scheduling: the oracle always decodes synchronously",
	"ForkInherits":       "fleet lifecycle bookkeeping: the oracle has no fork inheritance",
	"StreamLosses":       "demux transport event upstream of the oracle's stream view; its health/degraded consequences are compared through the counters above",
}

// TestStatsOracleTwins pins the pairing compareStats and addOracleStats
// rely on: every oracle.Stats field has a same-named uint64 twin in
// guard.Stats, and the guard counters without one are exactly
// guardOnlyStats.
func TestStatsOracleTwins(t *testing.T) {
	gt, ot := reflect.TypeOf(guard.Stats{}), reflect.TypeOf(oracle.Stats{})
	twins := map[string]bool{}
	for i := 0; i < ot.NumField(); i++ {
		of := ot.Field(i)
		gf, ok := gt.FieldByName(of.Name)
		if !ok {
			t.Errorf("oracle.Stats.%s has no guard.Stats twin", of.Name)
			continue
		}
		if of.Type.Kind() != reflect.Uint64 || gf.Type.Kind() != reflect.Uint64 {
			t.Errorf("%s: guard %s, oracle %s; want uint64 on both sides", of.Name, gf.Type, of.Type)
		}
		if _, listed := guardOnlyStats[of.Name]; listed {
			t.Errorf("%s has an oracle twin but is listed as guard-only", of.Name)
		}
		twins[of.Name] = true
	}
	var unlisted []string
	for i := 0; i < gt.NumField(); i++ {
		name := gt.Field(i).Name
		if _, listed := guardOnlyStats[name]; !twins[name] && !listed {
			unlisted = append(unlisted, name)
		}
	}
	if len(unlisted) > 0 {
		t.Errorf("guard.Stats counters with no oracle twin and no guard-only reason: %s", strings.Join(unlisted, ", "))
	}
	for name := range guardOnlyStats {
		if _, ok := gt.FieldByName(name); !ok {
			t.Errorf("guardOnlyStats lists %s, which guard.Stats no longer has", name)
		}
	}
}

// TestCompareStatsNamesEachTwin perturbs one guard counter at a time and
// checks compareStats reports exactly that counter, while perturbing a
// guard-only counter reports nothing; addOracleStats sums every twin.
func TestCompareStatsNamesEachTwin(t *testing.T) {
	var o oracle.Stats
	ov := reflect.ValueOf(&o).Elem()
	for i := 0; i < ov.NumField(); i++ {
		ov.Field(i).SetUint(uint64(100 + i))
	}
	var base guard.Stats
	oracleTwins(&base, &o, func(_ string, gv, ov reflect.Value) { gv.SetUint(ov.Uint()) })
	if divs := compareStats(&base, &o); len(divs) != 0 {
		t.Fatalf("equal twins diverge: %v", divs)
	}
	gt := reflect.TypeOf(base)
	for i := 0; i < gt.NumField(); i++ {
		name := gt.Field(i).Name
		g := base
		f := reflect.ValueOf(&g).Elem().Field(i)
		f.SetUint(f.Uint() + 1)
		divs := compareStats(&g, &o)
		if _, guardOnly := guardOnlyStats[name]; guardOnly {
			if len(divs) != 0 {
				t.Errorf("guard-only %s diverged: %v", name, divs)
			}
			continue
		}
		if len(divs) != 1 || !strings.HasPrefix(divs[0], "stats "+name+": guard=") {
			t.Errorf("perturbed %s: divergences %v", name, divs)
		}
	}

	sum := o
	addOracleStats(&sum, &o)
	for i := 0; i < ov.NumField(); i++ {
		got, want := reflect.ValueOf(sum).Field(i).Uint(), 2*ov.Field(i).Uint()
		if got != want {
			t.Errorf("addOracleStats %s: got %d, want %d", ov.Type().Field(i).Name, got, want)
		}
	}
}
