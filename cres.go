package cres

import (
	"fmt"
	"time"

	"cres/internal/attack"
	"cres/internal/baseline"
	"cres/internal/boot"
	"cres/internal/core"
	"cres/internal/cryptoutil"
	"cres/internal/evidence"
	"cres/internal/hw"
	"cres/internal/m2m"
	"cres/internal/monitor"
	"cres/internal/policy"
	"cres/internal/recovery"
	"cres/internal/response"
	"cres/internal/scenario"
	"cres/internal/sim"
	"cres/internal/tee"
	"cres/internal/tpm"
)

// Device is an assembled platform.
type Device struct {
	Name string
	// Arch is the compiled architecture: scenario.ArchCRES or
	// scenario.ArchBaseline.
	Arch string

	Engine *sim.Engine
	SoC    *hw.SoC
	TPM    *tpm.TPM
	Chain  *boot.Chain
	TEE    *tee.TEE
	Policy *policy.Set
	Vendor *cryptoutil.KeyPair

	// CRES-only components (nil on baseline).
	SSM       *core.SSM
	Responder *response.Manager
	BusMon    *monitor.BusMonitor
	CFIMon    *monitor.CFIMonitor
	TimingMon *monitor.TimingMonitor
	EnvMon    *monitor.EnvMonitor
	NetMon    *monitor.NetMonitor

	// Baseline-only components (nil on CRES).
	Baseline *baseline.Controller
	PlainLog *baseline.PlainLog

	// Shared runtime components.
	Degrader *response.Degrader
	Updater  *recovery.Updater
	Endpoint *m2m.Endpoint
	Network  *m2m.Network

	Actuators map[string]*hw.Actuator

	spec       *scenario.CompiledDevice
	bootReport *boot.Report
	// gossipPeers are the cooperative-response neighbours, set by
	// EnableCooperation (coop.go). coopForget clears one origin's entry
	// from the cooperation layer's suppression state (nil until
	// cooperation is enabled); gossipExtra/gossipBackoff configure
	// redundant digest re-sends on lossy fabrics (coop.go).
	gossipPeers   []string
	coopForget    func(origin string)
	gossipExtra   int
	gossipBackoff func(attempt int) time.Duration
}

// NewDevice assembles the platform that spec describes, after
// spec.Compile validates it and fills its defaults. A nil engine gives
// the device a private engine seeded from spec.Seed; a shared engine
// (several devices, or a device plus a fleet verifier, on one virtual
// timeline) ignores spec.Seed. On a non-nil network the device gets an
// endpoint named after it; a nil network leaves it without one.
//
// Assembly builds the shared substrate first (SoC, TPM, boot chain,
// TEE, firmware, services, policy, optional network endpoint), then the
// architecture-specific layers.
func NewDevice(spec scenario.DeviceSpec, engine *sim.Engine, net *m2m.Network) (*Device, error) {
	compiled, err := spec.Compile()
	if err != nil {
		return nil, fmt.Errorf("cres: %w", err)
	}
	s := compiled.Spec
	name := s.Name

	if engine == nil {
		engine = sim.New(s.Seed)
	}
	soc, err := hw.NewSoC(engine, hw.SoCConfig{WithSSMCore: compiled.IsCRES()})
	if err != nil {
		return nil, fmt.Errorf("cres: %w", err)
	}
	tp, err := tpm.New(cryptoutil.NewDeterministicEntropy([]byte("tpm|" + name)))
	if err != nil {
		return nil, fmt.Errorf("cres: %w", err)
	}
	vendor, err := cryptoutil.KeyPairFromSeed(cryptoutil.DeriveKey([]byte("vendor"), name, "", 32))
	if err != nil {
		return nil, fmt.Errorf("cres: %w", err)
	}

	d := &Device{
		Name:      name,
		Arch:      s.Arch,
		Engine:    engine,
		SoC:       soc,
		TPM:       tp,
		Chain:     boot.NewChain(vendor.Public(), s.Boot),
		TEE:       tee.New(engine, soc, tee.Config{}),
		Vendor:    vendor,
		Actuators: make(map[string]*hw.Actuator),
		spec:      compiled,
	}
	d.Updater = recovery.NewUpdater(soc.Mem, d.Chain, tp)

	// Install the initial firmware.
	im := boot.BuildSigned("firmware", s.FirmwareVersion, s.FirmwarePayload, vendor)
	if err := boot.InstallImage(soc.Mem, boot.SlotA, im); err != nil {
		return nil, fmt.Errorf("cres: %w", err)
	}

	// Services / degradation tracking exists on both architectures.
	d.Degrader, err = response.NewDegrader(scenario.DefaultServices())
	if err != nil {
		return nil, fmt.Errorf("cres: %w", err)
	}

	// Bus-level security policy (both architectures; this is the
	// authors' companion enforcement work and predates the SSM).
	d.Policy = policy.NewSet(name+"-policy", true)
	if err := d.Policy.Add(policy.Rule{
		Name: "deny-dma-to-secure", Subject: "dma*", Object: hw.RegionSecureSRAM,
		Actions: policy.ActionAll, Effect: policy.Deny, Priority: 10,
	}); err != nil {
		return nil, fmt.Errorf("cres: %w", err)
	}
	soc.Bus.AddGate(d.Policy.Gate(soc.Mem, nil))

	// Network endpoint.
	if net != nil {
		epKey, err := cryptoutil.KeyPairFromSeed(cryptoutil.DeriveKey([]byte("m2m"), name, "", 32))
		if err != nil {
			return nil, fmt.Errorf("cres: %w", err)
		}
		d.Endpoint, err = net.AddNode(name, epKey)
		if err != nil {
			return nil, fmt.Errorf("cres: %w", err)
		}
		d.Network = net
	}

	if compiled.IsCRES() {
		if err := d.buildCRES(); err != nil {
			return nil, err
		}
	} else {
		d.PlainLog = &baseline.PlainLog{}
		d.Baseline = baseline.NewController(engine, baseline.Config{RebootDuration: s.RebootTime}, d.PlainLog, d.Degrader)
	}
	return d, nil
}

// buildCRES wires the architecture's three characteristics in fixed
// order: the isolated SSM core and response manager first, then each
// runtime monitor the compiled spec enables. The order is part of the
// output contract — engine callbacks register as monitors construct,
// so the experiment tables are byte-identical only while it holds.
func (d *Device) buildCRES() error {
	if err := d.buildSSM(); err != nil {
		return err
	}
	for _, build := range []struct {
		monitor string
		fn      func() error
	}{
		{scenario.MonitorBus, d.buildBusMonitor},
		{scenario.MonitorCFI, d.buildCFIMonitor},
		{scenario.MonitorTiming, d.buildTimingMonitor},
		{scenario.MonitorEnv, d.buildEnvMonitor},
		{scenario.MonitorNet, d.buildNetMonitor},
	} {
		if !d.spec.MonitorOn(build.monitor) {
			continue
		}
		if err := build.fn(); err != nil {
			return err
		}
	}
	return d.installPlaybook()
}

// buildSSM creates the isolated security manager and the active
// response manager whose actions it records as evidence.
func (d *Device) buildSSM() error {
	ssmKey, err := cryptoutil.KeyPairFromSeed(cryptoutil.DeriveKey([]byte("ssm-anchor"), d.Name, "", 32))
	if err != nil {
		return fmt.Errorf("cres: %w", err)
	}
	d.SSM, err = core.New(d.Engine, core.Config{
		ObservationPeriod: scenario.ObservationPeriod,
		AnchorPeriod:      10 * scenario.ObservationPeriod,
		DeviceName:        d.Name,
	}, ssmKey, nil)
	if err != nil {
		return fmt.Errorf("cres: %w", err)
	}
	d.Responder = response.NewManager(d.Engine, d.SoC.Bus, d.SoC.Cache, func(a response.Action) {
		d.SSM.Log().Append(a.At, "response-manager", evidence.KindResponse,
			fmt.Sprintf("%s %s: %s", a.Kind, a.Target, a.Reason))
	})
	return nil
}

// buildBusMonitor wires the bus-transaction monitor: provisioned-world
// cross-checks, firmware/NV watchpoints (signature family) and rate
// anomaly detection (statistical family).
func (d *Device) buildBusMonitor() error {
	signatures := d.spec.SignatureDetection()
	busCfg := monitor.BusConfig{
		DisableSignatures: !signatures,
		RateWarmup:        12,
	}
	if signatures {
		busCfg.ProvisionedWorlds = map[string]hw.World{
			d.SoC.AppCore.Name(): hw.WorldNormal,
			d.SoC.DMA.Name():     hw.WorldNormal,
			"tee":                hw.WorldSecure,
			"ssm-core":           hw.WorldIsolated,
		}
		busCfg.Watchpoints = []monitor.Watchpoint{
			{Region: hw.RegionSlotA, Kinds: []hw.TxKind{hw.TxWrite}, Allowed: []string{"updater"}},
			{Region: hw.RegionSlotB, Kinds: []hw.TxKind{hw.TxWrite}, Allowed: []string{"updater"}},
			{Region: hw.RegionNV, Kinds: []hw.TxKind{hw.TxWrite}, Allowed: []string{"tee", "ssm-core"}},
		}
	}
	if d.spec.AnomalyDetection() {
		busCfg.RateWindow = scenario.MonitorWindow
	}
	var err error
	d.BusMon, err = monitor.NewBusMonitor(d.Engine, busCfg, d.SSM)
	if err != nil {
		return fmt.Errorf("cres: %w", err)
	}
	d.SoC.Bus.Subscribe(d.BusMon)
	d.SSM.AttachMonitor(d.BusMon)
	return nil
}

// buildCFIMonitor wires control-flow integrity checking — signature-
// based (known-good CFG), so it only exists when that family runs.
func (d *Device) buildCFIMonitor() error {
	if !d.spec.SignatureDetection() {
		return nil
	}
	var err error
	d.CFIMon, err = monitor.NewCFIMonitor(d.Engine, scenario.DefaultCFG(), d.SSM)
	if err != nil {
		return fmt.Errorf("cres: %w", err)
	}
	d.SoC.AppCore.SubscribeExec(d.CFIMon)
	d.SSM.AttachMonitor(d.CFIMon)
	return nil
}

// buildTimingMonitor wires cache-timing detection — statistical, so it
// only exists when that family runs.
func (d *Device) buildTimingMonitor() error {
	if !d.spec.AnomalyDetection() {
		return nil
	}
	var err error
	d.TimingMon, err = monitor.NewTimingMonitor(d.Engine, d.SoC.Cache, monitor.TimingConfig{
		Window: scenario.MonitorWindow, CrossWorldPerWindow: 8,
	}, d.SSM)
	if err != nil {
		return fmt.Errorf("cres: %w", err)
	}
	d.SSM.AttachMonitor(d.TimingMon)
	return nil
}

// buildEnvMonitor wires the environmental monitor: out-of-band
// detection (signature family) and drift detection (statistical).
func (d *Device) buildEnvMonitor() error {
	var err error
	d.EnvMon, err = monitor.NewEnvMonitor(d.Engine, d.SoC.EnvSensors(), monitor.EnvConfig{
		Window: scenario.MonitorWindow,
		Bands: map[string]monitor.EnvBand{
			"vdd-core": {MaxDeviation: 0.05},
			"pll-main": {MaxDeviation: 40},
			"die-temp": {MaxDeviation: 15},
		},
		DisableBands: !d.spec.SignatureDetection(),
		DisableDrift: !d.spec.AnomalyDetection(),
	}, d.SSM)
	if err != nil {
		return fmt.Errorf("cres: %w", err)
	}
	d.SSM.AttachMonitor(d.EnvMon)
	return nil
}

// buildNetMonitor wires the network monitor onto the device's M2M
// endpoint, when one exists.
func (d *Device) buildNetMonitor() error {
	if d.Endpoint == nil {
		return nil
	}
	netCfg := monitor.NetConfig{AuthFailureEscalation: 3, DisableSignatures: !d.spec.SignatureDetection()}
	if d.spec.AnomalyDetection() {
		netCfg.RateWindow = scenario.MonitorWindow
	}
	var err error
	d.NetMon, err = monitor.NewNetMonitor(d.Engine, netCfg, d.SSM)
	if err != nil {
		return fmt.Errorf("cres: %w", err)
	}
	d.Endpoint.AttachMonitor(d.NetMon)
	d.SSM.AttachMonitor(d.NetMon)
	return nil
}

// AddActuator registers a physical actuator with the device.
func (d *Device) AddActuator(a *hw.Actuator) { d.Actuators[a.Name] = a }

// Boot runs the secure boot chain, measures the policy, starts services
// and records the lifecycle. On CRES the boot report lands in the
// evidence log; on baseline, in the plain log.
func (d *Device) Boot() (*boot.Report, error) {
	rep, err := d.Chain.Boot(d.SoC.Mem, d.TPM)
	d.bootReport = rep
	if err != nil {
		d.recordLifecycle(fmt.Sprintf("boot FAILED: %v", err))
		return rep, err
	}
	if err := d.TPM.Extend(tpm.PCRPolicy, d.Policy.Digest(), "security policy "+d.Policy.Name()); err != nil {
		return rep, fmt.Errorf("cres: measure policy: %w", err)
	}
	d.Degrader.StartAll()
	d.recordLifecycle(fmt.Sprintf("booted %s v%d from slot %s", rep.Image.Name, rep.Image.Version, rep.BootedSlot))
	return rep, nil
}

func (d *Device) recordLifecycle(detail string) {
	if d.SSM != nil {
		d.SSM.RecordLifecycle(detail)
	}
	if d.PlainLog != nil {
		d.PlainLog.Append(d.Engine.Now(), detail)
	}
}

// Now returns the current virtual time.
func (d *Device) Now() sim.VirtualTime { return d.Engine.Now() }

// RunFor advances the simulation.
func (d *Device) RunFor(dur time.Duration) { d.Engine.RunFor(dur) }

// BootReport returns the last boot report.
func (d *Device) BootReport() *boot.Report { return d.bootReport }

// Target assembles the attack-injection view of the device.
func (d *Device) Target() *attack.Target {
	oldFW := boot.BuildSigned("firmware", 1, []byte("old vulnerable release"), d.Vendor)
	t := &attack.Target{
		Engine:      d.Engine,
		SoC:         d.SoC,
		TPM:         d.TPM,
		TEE:         d.TEE,
		Net:         d.Network,
		DeviceName:  d.Name,
		OldFirmware: oldFW,
		SecretName:  "m2m-key",
	}
	return t
}

// Launch injects an attack scenario into a device.
func Launch(d *Device, sc attack.Scenario) error {
	tgt := d.Target()
	return sc.Launch(tgt)
}

// ForensicReport reconstructs the evidence for a window. On a baseline
// device it returns nil: there is no tamper-evident log to reconstruct
// from — which is the paper's point.
func (d *Device) ForensicReport(from, to sim.VirtualTime) *core.BreachReport {
	if d.SSM == nil {
		return nil
	}
	return core.Reconstruct(d.SSM.Log(), from, to, sim.VirtualTime(2*scenario.ObservationPeriod), d.SSM.Anchors(), d.SSM.AnchorKey())
}
