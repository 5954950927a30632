package acpi

import (
	"fmt"
	"sort"
)

// SleepRegisters models the PM1A/PM1B ACPI sleep control registers. Writing a
// SLP_TYP value with SLP_EN set triggers the hardware transition; the platform
// reads the registers to know which state to enter. The paper's Sz prototype
// reuses one of the register encodings the specification leaves unused.
type SleepRegisters struct {
	PM1AControl uint16
	PM1BControl uint16
}

// slpEnable is the SLP_EN bit position in the PM1 control registers.
const slpEnable uint16 = 1 << 13

// slpTypeShift is the bit offset of the SLP_TYP field.
const slpTypeShift = 10

// Write requests a transition to the given state by setting SLP_TYP and
// SLP_EN in both registers, exactly as the modified kernel path does.
func (r *SleepRegisters) Write(s SleepState) {
	v := (s.SleepTypeValue() << slpTypeShift) | slpEnable
	r.PM1AControl = v
	r.PM1BControl = v
}

// Pending decodes the requested sleep state, if SLP_EN is set in both
// registers and the two registers agree. The bool result reports whether a
// transition is pending.
func (r *SleepRegisters) Pending() (SleepState, bool) {
	if r.PM1AControl&slpEnable == 0 || r.PM1BControl&slpEnable == 0 {
		return S0, false
	}
	if r.PM1AControl != r.PM1BControl {
		return S0, false
	}
	typ := (r.PM1AControl >> slpTypeShift) & 0x7
	// Sz uses an out-of-range SLP_TYP (0xA) whose low bits collide with S2;
	// disambiguate by checking the full raw field first.
	rawTyp := (r.PM1AControl >> slpTypeShift) & 0xF
	if rawTyp == Sz.SleepTypeValue() {
		return Sz, true
	}
	for _, s := range AllStates() {
		if s.SleepTypeValue() == typ {
			return s, true
		}
	}
	return S0, false
}

// Clear resets both registers (done by firmware after a wake).
func (r *SleepRegisters) Clear() {
	r.PM1AControl = 0
	r.PM1BControl = 0
}

// TransitionStep is one entry of a suspend/resume execution trace. It mirrors
// the call chain the paper shows in Figure 6 so that tests can assert the Sz
// path only differs from the S3 path in the expected places.
type TransitionStep struct {
	// Func is the name of the kernel/firmware function executed.
	Func string
	// ModifiedForSz marks the steps the paper had to patch (the sysfs keyword,
	// x86_acpi_enter_sleep_state, acpi_os_prepare_sleep).
	ModifiedForSz bool
	// Detail carries a human-readable note (device transitioned, register
	// written, ...).
	Detail string
}

// Firmware models the platform firmware responsibilities around Sz: chipset
// initialisation at boot, per-device S-state sequencing on every enter, and
// chipset re-initialisation plus hand-back to the OS on every exit.
type Firmware struct {
	// Version identifies the firmware build; boots bump BootCount.
	Version string
	// SzCapable reports whether the firmware knows how to sequence Sz.
	SzCapable bool

	BootCount   int
	SzEnters    int
	SzExits     int
	initialized bool
}

// NewFirmware returns firmware that supports the Sz sequencing when szCapable
// is true.
func NewFirmware(version string, szCapable bool) *Firmware {
	return &Firmware{Version: version, SzCapable: szCapable}
}

// Boot initialises the Sz chipset configuration (only meaningful when the
// firmware is Sz capable).
func (f *Firmware) Boot() {
	f.BootCount++
	f.initialized = true
}

// Initialized reports whether Boot has run.
func (f *Firmware) Initialized() bool { return f.initialized }

// sequenceEnter transitions every device to its target D-state for the sleep
// state, honouring the Sz keep-alive set.
func (f *Firmware) sequenceEnter(p *Platform, target SleepState, trace *[]TransitionStep) error {
	if target == Sz {
		if !f.SzCapable {
			return fmt.Errorf("acpi: firmware %q cannot sequence Sz", f.Version)
		}
		if !f.initialized {
			return fmt.Errorf("acpi: firmware %q not booted, Sz chipset configuration missing", f.Version)
		}
		f.SzEnters++
	}
	for _, name := range sortedDeviceNames(p.devices) {
		d := p.devices[name]
		var next DeviceState
		switch {
		case target == Sz && d.KeepAliveInSz:
			next = D0i
		case d.Class == ClassWakeNIC:
			next = D2 // stays reachable for Wake-on-LAN
		case target == S4 || target == S5:
			next = D3Cold
		default:
			next = D3Hot
		}
		d.State = next
		*trace = append(*trace, TransitionStep{
			Func:          "firmware_device_transition",
			ModifiedForSz: target == Sz && d.KeepAliveInSz,
			Detail:        fmt.Sprintf("%s -> %s", d.Name, next),
		})
	}
	return nil
}

// sequenceExit restores every device to D0 and reinitialises the chipset.
func (f *Firmware) sequenceExit(p *Platform, from SleepState, trace *[]TransitionStep) {
	if from == Sz {
		f.SzExits++
	}
	for _, name := range sortedDeviceNames(p.devices) {
		d := p.devices[name]
		d.State = D0
		*trace = append(*trace, TransitionStep{
			Func:   "firmware_device_transition",
			Detail: fmt.Sprintf("%s -> %s", d.Name, D0),
		})
	}
	*trace = append(*trace, TransitionStep{Func: "firmware_chipset_reinit", Detail: "hand control back to OSPM"})
}

// Platform is a power-manageable server board: its devices, power rails,
// sleep registers, firmware and current global state. It is the unit the rack
// manager suspends and wakes.
type Platform struct {
	Spec     BoardSpec
	Firmware *Firmware

	devices map[string]*Device
	rails   map[string]*PowerRail
	regs    SleepRegisters

	state SleepState
	// wakeArmed lists wake sources armed before the last suspend.
	wakeArmed map[WakeSource]bool

	// Bookkeeping.
	transitions   []TransitionRecord
	lastTrace     []TransitionStep
	timeInStateNs map[SleepState]int64
	lastChangeNs  int64
	nowNs         int64
}

// WakeSource identifies an event class that can wake a sleeping platform.
type WakeSource int

// Wake sources relevant to the rack manager.
const (
	WakeLAN WakeSource = iota // Wake-on-LAN packet on the management NIC
	WakeRTC                   // real-time-clock alarm
	WakePowerButton
)

// String names the wake source.
func (w WakeSource) String() string {
	switch w {
	case WakeLAN:
		return "wake-on-lan"
	case WakeRTC:
		return "rtc"
	case WakePowerButton:
		return "power-button"
	default:
		return fmt.Sprintf("WakeSource(%d)", int(w))
	}
}

// TransitionRecord captures one completed state change.
type TransitionRecord struct {
	From      SleepState
	To        SleepState
	AtNs      int64
	LatencyNs int64
}

// NewPlatform builds a platform from a board spec with Sz-capable firmware
// when the board has split power domains.
func NewPlatform(spec BoardSpec) (*Platform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	devices, rails := buildDevices(spec)
	fw := NewFirmware("zombieland-fw-1.0", spec.SplitPowerDomains)
	fw.Boot()
	p := &Platform{
		Spec:          spec,
		Firmware:      fw,
		devices:       devices,
		rails:         rails,
		state:         S0,
		wakeArmed:     map[WakeSource]bool{WakeLAN: true, WakePowerButton: true},
		timeInStateNs: make(map[SleepState]int64),
	}
	return p, nil
}

// State returns the current global sleep state.
func (p *Platform) State() SleepState { return p.state }

// Devices returns the device names in deterministic order.
func (p *Platform) Devices() []string { return sortedDeviceNames(p.devices) }

// Device returns the named device, or nil.
func (p *Platform) Device(name string) *Device { return p.devices[name] }

// Rails returns the power rail names in deterministic order.
func (p *Platform) Rails() []string {
	names := make([]string, 0, len(p.rails))
	for n := range p.rails {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Rail returns the named power rail, or nil.
func (p *Platform) Rail(name string) *PowerRail { return p.rails[name] }

// LastTrace returns the execution trace of the most recent transition.
func (p *Platform) LastTrace() []TransitionStep {
	return append([]TransitionStep(nil), p.lastTrace...)
}

// Transitions returns all completed transitions.
func (p *Platform) Transitions() []TransitionRecord {
	return append([]TransitionRecord(nil), p.transitions...)
}

// Now returns the platform's simulated clock in nanoseconds.
func (p *Platform) Now() int64 { return p.nowNs }

// AdvanceClock moves the simulated clock forward, attributing the elapsed
// time to the current state for energy accounting.
func (p *Platform) AdvanceClock(deltaNs int64) {
	if deltaNs < 0 {
		return
	}
	p.nowNs += deltaNs
}

// TimeInState returns the accumulated nanoseconds spent in the state,
// including the (open) interval since the last transition if the platform is
// currently in that state.
func (p *Platform) TimeInState(s SleepState) int64 {
	t := p.timeInStateNs[s]
	if p.state == s {
		t += p.nowNs - p.lastChangeNs
	}
	return t
}

// ArmWake arms a wake source for the next suspend.
func (p *Platform) ArmWake(src WakeSource) { p.wakeArmed[src] = true }

// DisarmWake disarms a wake source.
func (p *Platform) DisarmWake(src WakeSource) { delete(p.wakeArmed, src) }

// WakeArmed reports whether the wake source is armed.
func (p *Platform) WakeArmed(src WakeSource) bool { return p.wakeArmed[src] }

// MemoryRemotelyAccessible reports whether one-sided remote memory access is
// possible right now: the state must allow it and every keep-alive device
// (DRAM, memory controller, RDMA NIC, its PCIe root) must be functional.
func (p *Platform) MemoryRemotelyAccessible() bool {
	if !p.state.MemoryRemotelyAccessible() {
		return false
	}
	for _, name := range sortedDeviceNames(p.devices) {
		d := p.devices[name]
		if d.KeepAliveInSz && !d.Functional(p.rails) {
			return false
		}
	}
	return true
}

// CanEnter reports whether the platform supports entering the state, without
// performing the transition. Sz requires split power domains, an RDMA NIC and
// Sz-capable firmware.
func (p *Platform) CanEnter(s SleepState) error {
	if s == p.state {
		return fmt.Errorf("acpi: already in %s", s)
	}
	if p.state != S0 && s != S0 {
		return fmt.Errorf("acpi: must resume to S0 before entering %s (currently %s)", s, p.state)
	}
	if s == Sz {
		if !p.Spec.SplitPowerDomains {
			return fmt.Errorf("acpi: board %q has no split CPU/memory power domains, Sz unavailable", p.Spec.Name)
		}
		if !p.Spec.HasRemoteNIC {
			return fmt.Errorf("acpi: board %q has no RDMA NIC, Sz is pointless", p.Spec.Name)
		}
		if !p.Firmware.SzCapable {
			return fmt.Errorf("acpi: firmware %q is not Sz capable", p.Firmware.Version)
		}
	}
	return nil
}

// Suspend transitions the platform from S0 into the requested sleep state,
// following the OSPM execution path of the paper's Figure 6. It returns the
// transition trace. The simulated clock is advanced by the enter latency.
func (p *Platform) Suspend(target SleepState) ([]TransitionStep, error) {
	if target == S0 {
		return nil, fmt.Errorf("acpi: use Wake to return to S0")
	}
	if err := p.CanEnter(target); err != nil {
		return nil, err
	}
	kw := target.SysfsKeyword()
	if kw == "" {
		return nil, fmt.Errorf("acpi: state %s cannot be requested through /sys/power/state", target)
	}

	var trace []TransitionStep
	step := func(fn string, modified bool, detail string) {
		trace = append(trace, TransitionStep{Func: fn, ModifiedForSz: modified, Detail: detail})
	}

	// The OSPM path of Figure 6. Steps marked modified are the ones the paper
	// patches to introduce the zombie keyword and register value.
	step("sysfs_write_power_state", target == Sz, fmt.Sprintf("echo %s > /sys/power/state", kw))
	step("pm_suspend", target == Sz, "enter OSPM suspend")
	step("enter_state", false, target.String())
	step("suspend_prepare", false, "freeze user space, allocate suspend console")
	step("suspend_devices_and_enter", false, "suspend device tree")

	if err := p.Firmware.sequenceEnter(p, target, &trace); err != nil {
		return nil, err
	}

	step("suspend_enter", false, "")
	step("acpi_suspend_enter", false, "")
	step("x86_acpi_suspend_lowlevel", false, "save processor context")
	step("do_suspend_lowlevel", false, "")
	step("x86_acpi_enter_sleep_state", target == Sz, "select SLP_TYP")
	step("acpi_hw_legacy_sleep", target == Sz, "write PM1A/PM1B control registers")
	p.regs.Write(target)
	step("acpi_os_prepare_sleep", target == Sz, "")
	step("tboot_sleep", target == Sz, "platform reads PM1 registers and cuts power rails")

	pending, ok := p.regs.Pending()
	if !ok || pending != target {
		return nil, fmt.Errorf("acpi: PM1 registers decode to %v (ok=%v), want %s", pending, ok, target)
	}

	// Cut the power rails according to the target state.
	p.applyRails(target)

	lat := Latency(target)
	p.recordTransition(p.state, target, lat.Enter)
	p.lastTrace = trace
	return trace, nil
}

// Wake resumes the platform to S0 using the given wake source. It fails when
// the source is not armed or cannot reach the platform in its current state.
func (p *Platform) Wake(src WakeSource) ([]TransitionStep, error) {
	if p.state == S0 {
		return nil, fmt.Errorf("acpi: already awake")
	}
	if !p.wakeArmed[src] {
		return nil, fmt.Errorf("acpi: wake source %s is not armed", src)
	}
	if src == WakeLAN && p.state == S5 {
		// A soft-off platform only honours WoL if the standby rail feeds the
		// NIC, which our board layout provides, so allow it; G3 would not.
		_ = src
	}
	from := p.state

	var trace []TransitionStep
	trace = append(trace, TransitionStep{Func: "wake_event", Detail: src.String()})
	// Re-energise all rails, then let firmware restore devices and hand
	// control back to the OS.
	for _, name := range p.Rails() {
		p.rails[name].Energised = true
		trace = append(trace, TransitionStep{Func: "power_rail_on", Detail: name})
	}
	p.Firmware.sequenceExit(p, from, &trace)
	trace = append(trace, TransitionStep{Func: "ospm_resume", Detail: "thaw user space"})
	p.regs.Clear()

	lat := Latency(from)
	p.recordTransition(from, S0, lat.Exit)
	p.lastTrace = trace
	return trace, nil
}

// applyRails energises or cuts power rails according to the target state.
func (p *Platform) applyRails(target SleepState) {
	prof := Profile(target)
	for _, name := range p.Rails() {
		r := p.rails[name]
		switch name {
		case "rail-standby":
			r.Energised = true // always on while AC is present
		case "rail-cpu":
			r.Energised = prof.CPUOn
		case "rail-mem":
			r.Energised = prof.MemoryState.Powered()
		case "rail-ibpath":
			r.Energised = prof.RemoteNICState.Powered()
		case "rail-main":
			// The main rail carries chipset, storage, fans: only on in S0.
			r.Energised = target == S0
			if !p.Spec.SplitPowerDomains {
				// Without split domains memory and NIC share rail-main, so it
				// must stay up whenever memory must be preserved (S3).
				r.Energised = r.Energised || prof.MemoryState.Powered()
			}
		}
	}
}

// recordTransition updates the state, time accounting and history.
func (p *Platform) recordTransition(from, to SleepState, latencyNs int64) {
	p.timeInStateNs[from] += p.nowNs - p.lastChangeNs
	p.nowNs += latencyNs
	p.lastChangeNs = p.nowNs
	p.state = to
	p.transitions = append(p.transitions, TransitionRecord{From: from, To: to, AtNs: p.nowNs, LatencyNs: latencyNs})
}
