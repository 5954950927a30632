package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/trace"
)

// FuzzSpec decodes arbitrary bytes as the autopilot body, the way the
// handler does, and runs admit over the result: neither may panic, and an
// admitted spec has exactly one trace source, every count inside its cap, a
// horizon of at least one second and at most maxAPTicks ticks. The seed
// corpus under testdata/fuzz/FuzzSpec sits at and just past every cap, plus
// truncated JSON.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"machines":10,"tasks":60,"horizon_sec":3600,"tick_sec":600,"family":"serverless"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		sp := defaultSpec()
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&sp) != nil || admit(sp) != nil {
			return
		}
		if sp.File != "" || (sp.Modified && sp.Family != "") {
			t.Fatalf("admitted a spec with more than one source: %+v", sp)
		}
		if sp.Family != "" {
			if _, err := trace.FamilyByName(sp.Family); err != nil {
				t.Fatalf("admitted an unknown family: %v", err)
			}
		}
		if sp.Machines < 1 || sp.Machines > maxAPMachines || sp.Tasks < 1 || sp.Tasks > maxAPTasks {
			t.Fatalf("admitted counts outside their caps: %+v", sp)
		}
		if sp.HorizonSec < 1 || sp.HorizonSec > maxAPHorizonSec || sp.TickSec < 1 {
			t.Fatalf("admitted a horizon or tick outside its range: %+v", sp)
		}
		if ticks := math.Ceil(float64(sp.HorizonSec) / float64(sp.TickSec)); ticks > maxAPTicks {
			t.Fatalf("admitted %v ticks: %+v", ticks, sp)
		}
	})
}
