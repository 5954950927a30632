package workload

import (
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/pagepolicy"
	"repro/internal/swapdev"
	"repro/internal/vm"
)

// Accessor is the common surface of the two paging contexts (RAM Ext and
// Explicit SD): the runner only needs to replay accesses and read stats.
type Accessor interface {
	Access(page int, write bool) (float64, error)
	Stats() hypervisor.Stats
}

// Result summarises one workload execution.
type Result struct {
	Workload Kind
	// LocalFraction is the fraction of the VM's reserved memory that was
	// backed by local host memory.
	LocalFraction float64
	// ExecTimeNs is the simulated execution time.
	ExecTimeNs float64
	// BaselineNs is the execution time of the same stream with 100% local
	// memory.
	BaselineNs float64
	// PenaltyPercent is how much longer the execution took than the baseline,
	// in percent (the unit of Tables 1 and 2).
	PenaltyPercent float64
	// MajorFaults is the number of policy-induced page faults.
	MajorFaults uint64
	// PolicyCyclesPerFault is the mean replacement-policy cost per fault.
	PolicyCyclesPerFault float64
	// SwapTraffic is the number of pages moved to/from the backing store.
	SwapTraffic uint64
}

// Runner replays workload streams against paging configurations and reports
// penalties relative to an all-local baseline.
type Runner struct {
	// Seed makes runs reproducible.
	Seed int64
	// Iterations is the number of passes over the VM's pages per run.
	Iterations int
}

// NewRunner returns a runner with seed 1 and two iterations per run.
func NewRunner() *Runner {
	return &Runner{Seed: 1, Iterations: 2}
}

// scaledPages converts a VM reservation to a tractable simulated page count.
// Experiments run with thousands of simulated pages instead of millions; the
// local fraction, the access distribution and therefore the penalty shape are
// preserved.
func scaledPages(machine vm.VM, maxPages int) int {
	p := machine.ReservedPages()
	if p > maxPages {
		return maxPages
	}
	if p < 64 {
		return 64
	}
	return p
}

// DefaultSimPages is the page count used to simulate a multi-GiB VM.
const DefaultSimPages = 4096

// RunRAMExt replays the workload against a RAM Ext configuration where
// localFraction of the VM's reserved memory is local and the rest is remote.
func (r *Runner) RunRAMExt(kind Kind, machine vm.VM, localFraction float64, policy pagepolicy.Policy, store hypervisor.RemoteStore) (Result, error) {
	if localFraction <= 0 || localFraction > 1 {
		return Result{}, fmt.Errorf("workload: local fraction %v outside (0,1]", localFraction)
	}
	pages := scaledPages(machine, DefaultSimPages)
	localFrames := int(float64(pages) * localFraction)
	if localFrames < 1 {
		localFrames = 1
	}
	if store == nil {
		store = hypervisor.NewInfinibandStore(pages)
	}
	if policy == nil {
		policy = pagepolicy.NewMixed(pagepolicy.DefaultCost(), pagepolicy.DefaultMixedWindow)
	}
	ram, err := hypervisor.NewRAMExt(hypervisor.Config{
		Pages:       pages,
		LocalFrames: localFrames,
		Policy:      policy,
		Remote:      store,
	})
	if err != nil {
		return Result{}, err
	}
	return r.replay(kind, pages, localFraction, ram)
}

// RunExplicitSD replays the workload against an Explicit SD configuration:
// the guest sees localFraction of its reservation as RAM and swaps the rest
// to the given device kind.
func (r *Runner) RunExplicitSD(kind Kind, machine vm.VM, localFraction float64, device swapdev.Kind) (Result, error) {
	if localFraction <= 0 || localFraction > 1 {
		return Result{}, fmt.Errorf("workload: local fraction %v outside (0,1]", localFraction)
	}
	pages := scaledPages(machine, DefaultSimPages)
	localFrames := int(float64(pages) * localFraction)
	if localFrames < 1 {
		localFrames = 1
	}
	dev, err := swapdev.New(device, pages)
	if err != nil {
		return Result{}, err
	}
	esd, err := hypervisor.NewExplicitSD(hypervisor.ExplicitConfig{
		Pages:       pages,
		LocalFrames: localFrames,
		Device:      dev,
	})
	if err != nil {
		return Result{}, err
	}
	return r.replay(kind, pages, localFraction, esd)
}

// replay runs the stream against the accessor and against an all-local
// baseline, returning the penalty.
func (r *Runner) replay(kind Kind, pages int, localFraction float64, target Accessor) (Result, error) {
	iters := r.Iterations
	if iters <= 0 {
		iters = 1
	}
	profile := ProfileOf(kind)

	baseline, err := hypervisor.NewRAMExt(hypervisor.Config{Pages: pages, LocalFrames: pages})
	if err != nil {
		return Result{}, err
	}

	// Replay the identical stream against both configurations.
	stream, err := NewStream(profile, pages, iters, r.Seed)
	if err != nil {
		return Result{}, err
	}
	var targetNs, baseNs float64
	for {
		a, ok := stream.Next()
		if !ok {
			break
		}
		ns, err := target.Access(a.Page, a.Write)
		if err != nil {
			return Result{}, fmt.Errorf("workload %s: %w", kind, err)
		}
		targetNs += ns
		bns, err := baseline.Access(a.Page, a.Write)
		if err != nil {
			return Result{}, err
		}
		baseNs += bns
	}

	st := target.Stats()
	res := Result{
		Workload:             kind,
		LocalFraction:        localFraction,
		ExecTimeNs:           targetNs,
		BaselineNs:           baseNs,
		MajorFaults:          st.MajorFaults,
		PolicyCyclesPerFault: st.PolicyCyclesPerFault(),
		SwapTraffic:          st.Demotions + st.Promotions,
	}
	if baseNs > 0 {
		res.PenaltyPercent = (targetNs - baseNs) / baseNs * 100
	}
	if res.PenaltyPercent < 0 {
		res.PenaltyPercent = 0
	}
	return res, nil
}

// PaperVM returns the VM configuration of the paper's Section 6.2/6.3
// experiments: 7 GiB reserved memory, 6 GiB working set, 8 vCPUs.
func PaperVM() vm.VM {
	return vm.New("bench-vm", 7<<30, 6<<30)
}

// LocalFractions returns the local-memory fractions evaluated in Tables 1
// and 2 (20%..80%).
func LocalFractions() []float64 {
	return []float64{0.2, 0.4, 0.5, 0.6, 0.8}
}
