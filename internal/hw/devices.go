package hw

import (
	"errors"
	"fmt"
	"time"

	"cres/internal/sim"
)

// DMAEngine is a bus master that performs bulk copies over time. It is a
// distinct initiator so the response manager can isolate it independently
// of the cores (e.g. quarantining a compromised peripheral DMA).
type DMAEngine struct {
	engine    *sim.Engine
	init      *Initiator
	chunkSize uint64
	perChunk  time.Duration
	active    int
}

// NewDMAEngine creates a DMA engine attached to bus. chunkSize is the
// burst size in bytes and perChunk the virtual time per burst.
func NewDMAEngine(engine *sim.Engine, bus *Bus, name string, world World, chunkSize uint64, perChunk time.Duration) (*DMAEngine, error) {
	if chunkSize == 0 {
		return nil, errors.New("hw: dma chunk size must be positive")
	}
	if perChunk <= 0 {
		return nil, errors.New("hw: dma per-chunk time must be positive")
	}
	return &DMAEngine{engine: engine, init: bus.Attach(name, world), chunkSize: chunkSize, perChunk: perChunk}, nil
}

// Name returns the DMA engine's bus name.
func (d *DMAEngine) Name() string { return d.init.Name() }

// Active returns the number of in-flight transfers.
func (d *DMAEngine) Active() int { return d.active }

// Transfer copies n bytes from src to dst in chunks, invoking done with
// the final status when the transfer completes or faults. A fault on any
// chunk (including a response-manager gate blocking the engine) aborts
// the transfer.
func (d *DMAEngine) Transfer(src, dst Addr, n uint64, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	if n == 0 {
		done(nil)
		return
	}
	d.active++
	// One chunk buffer and one closure serve the whole transfer: the
	// closure advances its captured offset and re-schedules itself, so a
	// chunk costs no allocations.
	buf := make([]byte, d.chunkSize)
	var offset uint64
	var step func()
	step = func() {
		remaining := n - offset
		sz := d.chunkSize
		if remaining < sz {
			sz = remaining
		}
		chunk := buf[:sz]
		err := d.init.ReadInto(src+Addr(offset), chunk)
		if err == nil {
			err = d.init.Write(dst+Addr(offset), chunk)
		}
		if err != nil {
			d.active--
			done(fmt.Errorf("hw: dma transfer at offset %d: %w", offset, err))
			return
		}
		offset += sz
		if offset >= n {
			d.active--
			done(nil)
			return
		}
		d.engine.MustSchedule(d.perChunk, step)
	}
	d.engine.MustSchedule(d.perChunk, step)
}

// SensorKind classifies environmental sensors (Table I recovery row:
// "Voltage, clock and temperature monitors").
type SensorKind uint8

// Environmental sensor kinds.
const (
	SensorVoltage SensorKind = iota + 1
	SensorClock
	SensorTemperature
)

// String implements fmt.Stringer.
func (k SensorKind) String() string {
	switch k {
	case SensorVoltage:
		return "voltage"
	case SensorClock:
		return "clock"
	case SensorTemperature:
		return "temperature"
	default:
		return fmt.Sprintf("sensor(%d)", uint8(k))
	}
}

// EnvSensor models an on-die environmental sensor: a baseline value with
// bounded noise. Physical attacks (glitching, overclocking, heating)
// appear as an offset that the environmental monitor can detect.
type EnvSensor struct {
	Kind     SensorKind
	Name     string
	baseline float64
	noise    float64
	offset   float64
	engine   *sim.Engine
}

// NewEnvSensor creates a sensor with the given baseline and peak noise.
func NewEnvSensor(engine *sim.Engine, kind SensorKind, name string, baseline, noise float64) *EnvSensor {
	return &EnvSensor{Kind: kind, Name: name, baseline: baseline, noise: noise, engine: engine}
}

// Baseline returns the sensor's nominal value.
func (s *EnvSensor) Baseline() float64 { return s.baseline }

// Sample returns the current reading: baseline + uniform noise + any
// attack-injected offset.
func (s *EnvSensor) Sample() float64 {
	jitter := (s.engine.RNG().Float64()*2 - 1) * s.noise
	return s.baseline + jitter + s.offset
}

// InjectOffset applies a physical disturbance (attack injector only).
func (s *EnvSensor) InjectOffset(off float64) { s.offset = off }

// Offset returns the currently injected disturbance.
func (s *EnvSensor) Offset() float64 { return s.offset }

// Actuator models a physical output (a breaker, valve or drive). The
// response manager can lock it to a safe value; the forensic log of
// applied commands is what "physical actuation mixed with non-sensitive
// data" (Section V) puts at risk.
type Actuator struct {
	Name    string
	applied []ActuatorCommand
	locked  bool
	safe    float64
}

// ActuatorCommand is one command applied to an actuator.
type ActuatorCommand struct {
	At    sim.VirtualTime
	Value float64
	// Forced is true when the command was overridden to the safe value
	// by an active countermeasure.
	Forced bool
}

// NewActuator creates an actuator with the given fail-safe value.
func NewActuator(name string, safeValue float64) *Actuator {
	return &Actuator{Name: name, safe: safeValue}
}

// Apply commands the actuator. While locked, the safe value is applied
// instead and the command is recorded as forced.
func (a *Actuator) Apply(at sim.VirtualTime, value float64) ActuatorCommand {
	cmd := ActuatorCommand{At: at, Value: value}
	if a.locked {
		cmd.Value = a.safe
		cmd.Forced = true
	}
	a.applied = append(a.applied, cmd)
	return cmd
}

// Lock forces the actuator to its fail-safe value (countermeasure).
func (a *Actuator) Lock() { a.locked = true }

// Locked reports whether the actuator is locked safe.
func (a *Actuator) Locked() bool { return a.locked }

// History returns all applied commands.
func (a *Actuator) History() []ActuatorCommand {
	out := make([]ActuatorCommand, len(a.applied))
	copy(out, a.applied)
	return out
}
