package check

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"privmem/internal/experiments"
	"privmem/internal/fleet"
)

func TestBodyRejectsFlippedByte(t *testing.T) {
	want := []byte("== T6: zero-knowledge billing ==\nbilled_wh = 473279.0000\n")
	if err := Body("t6|seed=1|quick=true", want, want); err != nil {
		t.Fatalf("identical bodies: %v", err)
	}
	got := append([]byte(nil), want...)
	got[17] ^= 0x01
	err := Body("t6|seed=1|quick=true", got, want)
	if err == nil || !strings.Contains(err.Error(), "byte 17") {
		t.Fatalf("flipped byte: got %v, want an error naming byte 17", err)
	}
	if err := Body("k", want[:len(want)-1], want); err == nil {
		t.Fatal("truncated body passed")
	}
}

func TestReportsRejectsMissingReport(t *testing.T) {
	ids := []string{"f1", "t6"}
	ok := []*experiments.Report{{ID: "f1"}, {ID: "t6"}}
	if err := Reports(ids, ok); err != nil {
		t.Fatalf("complete suite: %v", err)
	}
	if err := Reports(ids, []*experiments.Report{{ID: "f1"}, nil}); err == nil || !strings.Contains(err.Error(), "t6: report missing") {
		t.Fatalf("missing report: got %v", err)
	}
	if err := Reports(ids, ok[:1]); err == nil {
		t.Fatal("short suite passed")
	}
	if err := Reports(ids, []*experiments.Report{{ID: "t6"}, {ID: "f1"}}); err == nil {
		t.Fatal("swapped reports passed")
	}
}

func TestMetricsRanges(t *testing.T) {
	good := &experiments.Report{ID: "t9", Metrics: map[string]float64{
		"device_id_uniform": 0.08, "overhead_uniform": 46, "occ_mcc_unshaped": -0.2,
	}}
	if err := Metrics(good); err != nil {
		t.Fatalf("in-range metrics: %v", err)
	}
	for name, v := range map[string]float64{
		"device_id_uniform": 1.2, "occ_mcc_unshaped": -1.5, "overhead_uniform": -1, "detected_count": math.NaN(),
	} {
		rep := &experiments.Report{ID: "t9", Metrics: map[string]float64{name: v}}
		if err := Metrics(rep); err == nil {
			t.Errorf("%s = %v passed", name, v)
		}
	}
	hidden := &experiments.Report{ID: "t12", Metrics: map[string]float64{"revealed_km_k_20": math.Inf(1)}}
	if err := Metrics(hidden); err != nil {
		t.Fatalf("t12 hidden facility: %v", err)
	}
	inf := &experiments.Report{ID: "f5", Metrics: map[string]float64{"sunspot_max_km": math.Inf(1)}}
	if err := Metrics(inf); err == nil {
		t.Fatal("+Inf outside t12 passed")
	}
	bill := &experiments.Report{ID: "t6", Metrics: map[string]float64{"billed_wh": 10, "true_wh": 11}}
	if err := Metrics(bill); err == nil {
		t.Fatal("t6 billing mismatch passed")
	}
}

func TestServeFailureAcceptsOnlyTheNonFiniteFault(t *testing.T) {
	fault := &experiments.Report{ID: "t12", Metrics: map[string]float64{"revealed_km_k_20": math.Inf(1)}}
	finite := &experiments.Report{ID: "t12", Metrics: map[string]float64{"revealed_km_k_20": 71}}
	if err := ServeFailure("t12|seed=0|quick=true", http.StatusInternalServerError, fault); err != nil {
		t.Fatalf("the known fault: %v", err)
	}
	cases := []struct {
		name   string
		status int
		direct *experiments.Report
	}{
		{"timeout", http.StatusGatewayTimeout, fault},
		{"500 with finite metrics", http.StatusInternalServerError, finite},
		{"500 without a direct report", http.StatusInternalServerError, nil},
		{"404", http.StatusNotFound, fault},
	}
	for _, c := range cases {
		if err := ServeFailure("k", c.status, c.direct); err == nil {
			t.Errorf("%s passed", c.name)
		}
	}
}

func TestFleetRejectsBrokenSummaries(t *testing.T) {
	q := fleet.Quantiles{P50: 0.7, P95: 0.8, P99: 0.9}
	good := func() *fleet.Result {
		return &fleet.Result{
			Homes:        10,
			Mix:          []fleet.ArchCount{{Name: "family", Homes: 6}, {Name: "retired", Homes: 4}},
			NIOMAccuracy: q, NetAccuracy: q, FHMMAccuracy: q,
			MaxZ: fleet.Quantiles{P50: 8, P95: 27, P99: 64},
		}
	}
	if err := Fleet(good(), 10); err != nil {
		t.Fatalf("good summary: %v", err)
	}
	disordered := good()
	disordered.NetAccuracy = fleet.Quantiles{P50: 0.9, P95: 0.8, P99: 0.95}
	if err := Fleet(disordered, 10); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("quantiles out of order: got %v", err)
	}
	outside := good()
	outside.FHMMAccuracy = fleet.Quantiles{P50: 0.5, P95: 0.9, P99: 1.01}
	if err := Fleet(outside, 10); err == nil {
		t.Fatal("accuracy above 1 passed")
	}
	lost := good()
	lost.Mix[1].Homes = 3
	if err := Fleet(lost, 10); err == nil {
		t.Fatal("mix that loses a home passed")
	}
}
