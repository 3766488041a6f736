// Package check holds the correctness checks of the privmem benchmark. Each
// check compares a program output with an independent computation or with a
// property the method must have, and returns an error naming what broke.
package check

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"strings"

	"privmem/internal/experiments"
	"privmem/internal/fleet"
)

// Body checks that a served body is byte-identical to the expected
// rendering of the same report.
func Body(key string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: body differs from the direct rendering at byte %d (got %d bytes, want %d)", key, i, len(got), len(want))
}

// Reports checks that every id produced exactly its own report, in order.
func Reports(ids []string, reps []*experiments.Report) error {
	if len(reps) != len(ids) {
		return fmt.Errorf("got %d reports for %d ids", len(reps), len(ids))
	}
	var errs []error
	for i, id := range ids {
		switch {
		case reps[i] == nil:
			errs = append(errs, fmt.Errorf("%s: report missing", id))
		case reps[i].ID != id:
			errs = append(errs, fmt.Errorf("%s: slot holds report %q", id, reps[i].ID))
		}
	}
	return errors.Join(errs...)
}

// metricRange is the range a headline metric's definition allows.
type metricRange struct {
	pattern *regexp.Regexp
	lo, hi  float64
}

// ranges are matched in order; the first pattern that matches a metric name
// gives its range. Correlations and Matthews coefficients lie in [-1, 1];
// accuracies, fractions and booleans in [0, 1]; distances, errors, counts
// and energies are non-negative.
var ranges = []metricRange{
	{regexp.MustCompile(`(^|_)(mcc|corr)(_|$)`), -1, 1},
	{regexp.MustCompile(`acc|^device_id_|gain|_frac$|^verify_ok$|^tampering_caught$`), 0, 1},
	{regexp.MustCompile(`.`), 0, math.MaxFloat64},
}

// hiddenAllowed reports whether a metric may be +Inf: t12's revealed_km_*
// reads +Inf when the facility is hidden by the release policy.
func hiddenAllowed(id, name string) bool {
	return id == "t12" && strings.HasPrefix(name, "revealed_km_")
}

// Metrics checks every headline metric of a report against the range its
// definition allows, and the identities some reports must satisfy.
func Metrics(rep *experiments.Report) error {
	var errs []error
	for name, v := range rep.Metrics {
		if math.IsInf(v, 1) && hiddenAllowed(rep.ID, name) {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			errs = append(errs, fmt.Errorf("%s: metric %s = %v is not finite", rep.ID, name, v))
			continue
		}
		for _, r := range ranges {
			if r.pattern.MatchString(name) {
				if v < r.lo || v > r.hi {
					errs = append(errs, fmt.Errorf("%s: metric %s = %v outside [%g, %g]", rep.ID, name, v, r.lo, r.hi))
				}
				break
			}
		}
	}
	// Zero-knowledge billing bills exactly the true energy.
	if rep.ID == "t6" && rep.Metrics["billed_wh"] != rep.Metrics["true_wh"] {
		errs = append(errs, fmt.Errorf("t6: billed_wh %v != true_wh %v", rep.Metrics["billed_wh"], rep.Metrics["true_wh"]))
	}
	return errors.Join(errs...)
}

// NonFinite reports whether a report carries a metric that JSON cannot
// encode (NaN or ±Inf).
func NonFinite(rep *experiments.Report) bool {
	for _, v := range rep.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// ServeFailure checks that a failed report request is the known fault and
// nothing else: memoird cannot JSON-encode a report with a non-finite
// metric, so it answers 500 for exactly those keys. direct is the report
// generated outside the server for the same key.
func ServeFailure(key string, status int, direct *experiments.Report) error {
	if status != http.StatusInternalServerError {
		return fmt.Errorf("%s: failed with status %d, not the 500 of the non-finite-metric fault", key, status)
	}
	if direct == nil {
		return fmt.Errorf("%s: failed, and no direct report to explain it", key)
	}
	if !NonFinite(direct) {
		return fmt.Errorf("%s: 500 although the direct report has only finite metrics", key)
	}
	return nil
}

// Quantiles checks that a p50/p95/p99 summary is ordered and inside
// [lo, hi].
func Quantiles(name string, q fleet.Quantiles, lo, hi float64) error {
	if !(q.P50 <= q.P95 && q.P95 <= q.P99) {
		return fmt.Errorf("%s: quantiles out of order: p50=%v p95=%v p99=%v", name, q.P50, q.P95, q.P99)
	}
	if q.P50 < lo || q.P99 > hi {
		return fmt.Errorf("%s: quantiles outside [%g, %g]: p50=%v p99=%v", name, lo, hi, q.P50, q.P99)
	}
	return nil
}

// Fleet checks a fleet summary: the mix adds up to the population and every
// per-capita distribution is ordered and inside its range (accuracies are
// fractions; the fleet clamps z-scores at 64).
func Fleet(res *fleet.Result, homes int) error {
	var errs []error
	sum := 0
	for _, m := range res.Mix {
		sum += m.Homes
	}
	if sum != homes || res.Homes != homes {
		errs = append(errs, fmt.Errorf("mix adds up to %d homes (result says %d), want %d", sum, res.Homes, homes))
	}
	errs = append(errs,
		Quantiles("niom_accuracy", res.NIOMAccuracy, 0, 1),
		Quantiles("net_accuracy", res.NetAccuracy, 0, 1),
		Quantiles("fhmm_accuracy", res.FHMMAccuracy, 0, 1),
		Quantiles("max_zscore", res.MaxZ, 0, 64),
	)
	return errors.Join(errs...)
}
