package autopilot

import (
	"fmt"

	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/trace"
)

// Spec is one online run as every front end names it: the trace it replays
// and the base planner, online policy, machine profile and tick it replays
// them with. It embeds the trace half, so its JSON is one flat object.
type Spec struct {
	trace.Spec
	Planner string `json:"planner"`
	Policy  string `json:"policy"`
	Machine string `json:"machine"`
	TickSec int64  `json:"tick_sec"`
}

// Validate is the spec's shape check: the trace half's, a positive tick, and
// planner, policy and machine names that resolve.
func (s Spec) Validate() error {
	_, _, err := s.resolve()
	return err
}

func (s Spec) resolve() (Policy, *energy.MachineProfile, error) {
	if err := s.Spec.Validate(); err != nil {
		return nil, nil, err
	}
	if s.TickSec < 1 {
		return nil, nil, trace.OutOfRange("tick_sec", s.TickSec, ">= 1")
	}
	base, err := consolidation.PolicyByName(s.Planner)
	if err != nil {
		return nil, nil, fmt.Errorf("planner: %w", err)
	}
	policy, err := PolicyByName(s.Policy, base)
	if err != nil {
		return nil, nil, fmt.Errorf("policy: %w", err)
	}
	profile, err := energy.ProfileByName(s.Machine)
	if err != nil {
		return nil, nil, fmt.Errorf("machine: %w", err)
	}
	return policy, profile, nil
}

// Config validates the spec, opens its trace and returns the run it names on
// the default server spec. The policy is a fresh instance.
func (s Spec) Config() (Config, error) {
	policy, profile, err := s.resolve()
	if err != nil {
		return Config{}, err
	}
	tr, err := s.Open()
	if err != nil {
		return Config{}, err
	}
	return Config{Trace: tr, Policy: policy, Machine: profile,
		ServerSpec: consolidation.DefaultServerSpec(), TickSec: s.TickSec}, nil
}
