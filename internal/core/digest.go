package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"strconv"

	"slaplace/internal/res"
	"slaplace/internal/workload/trans"
)

// Digest returns a stable hex fingerprint of the plan: every action in
// emission order plus every diagnostic field, floats hashed by their
// exact bit pattern and maps in sorted key order. Two plans digest
// equally iff they are byte-identical in everything a controller
// decides — the equivalence currency of the incremental-vs-from-scratch
// guarantees and the golden plan-sequence fixtures.
func (p *Plan) Digest() string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	// end finishes a line in buf, handing buf to the hash when full.
	end := func() {
		buf = append(buf, '\n')
		if len(buf) >= 4000 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	line := func(s string) {
		buf = append(buf, s...)
		end()
	}
	count := func(label string, n int) {
		buf = strconv.AppendInt(append(buf, label...), int64(n), 10)
		end()
	}
	f64 := func(v float64) {
		buf = strconv.AppendUint(buf, math.Float64bits(v), 16)
		end()
	}

	count("actions ", len(p.Actions))
	for _, a := range p.Actions {
		buf = a.appendText(buf)
		end()
	}
	f64(p.HypotheticalJobUtility)
	f64(p.EqualizedUtility)
	f64(float64(p.JobDemand))
	f64(float64(p.JobTarget))

	classes := make([]string, 0, len(p.ClassHypoUtility))
	for class := range p.ClassHypoUtility {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	count("classes ", len(classes))
	for _, class := range classes {
		line(class)
		f64(p.ClassHypoUtility[class])
	}

	hashApps := func(label string, m map[trans.AppID]float64) {
		ids := make([]string, 0, len(m))
		for id := range m {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		count(label+" ", len(ids))
		for _, id := range ids {
			line(id)
			f64(m[trans.AppID(id)])
		}
	}
	hashApps("prediction", p.AppPrediction)
	hashCPU := func(label string, m map[trans.AppID]res.CPU) {
		conv := make(map[trans.AppID]float64, len(m))
		for id, v := range m {
			conv[id] = float64(v)
		}
		hashApps(label, conv)
	}
	hashCPU("demand", p.AppDemand)
	hashCPU("target", p.AppTarget)

	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
