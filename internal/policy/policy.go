package policy

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"cres/internal/cryptoutil"
	"cres/internal/hw"
)

// Action is a policed operation.
type Action uint8

// Actions.
const (
	ActionRead Action = 1 << iota
	ActionWrite
	ActionExec
)

// ActionAll covers every action.
const ActionAll = ActionRead | ActionWrite | ActionExec

// String implements fmt.Stringer.
func (a Action) String() string {
	var parts []string
	if a&ActionRead != 0 {
		parts = append(parts, "read")
	}
	if a&ActionWrite != 0 {
		parts = append(parts, "write")
	}
	if a&ActionExec != 0 {
		parts = append(parts, "exec")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// ActionFromTx maps a bus transaction kind to an Action.
func ActionFromTx(k hw.TxKind) Action {
	switch k {
	case hw.TxRead:
		return ActionRead
	case hw.TxWrite:
		return ActionWrite
	case hw.TxExec:
		return ActionExec
	default:
		return 0
	}
}

// Effect is a rule outcome.
type Effect uint8

// Effects.
const (
	// Deny blocks the access.
	Deny Effect = iota + 1
	// Allow permits the access.
	Allow
)

// String implements fmt.Stringer.
func (e Effect) String() string {
	switch e {
	case Deny:
		return "deny"
	case Allow:
		return "allow"
	default:
		return fmt.Sprintf("effect(%d)", uint8(e))
	}
}

// Rule is one policy statement. Subject and Object support the "*"
// wildcard and "prefix*" matching.
type Rule struct {
	// Name identifies the rule in decisions and evidence.
	Name string
	// Subject matches the initiator name.
	Subject string
	// Object matches the resource (region) name.
	Object string
	// Actions is the set of actions the rule applies to.
	Actions Action
	// Effect is the outcome when the rule matches.
	Effect Effect
	// Priority orders evaluation; higher evaluates first. Rules with
	// equal priority evaluate in insertion order.
	Priority int
}

// matches reports whether the rule applies to the triple.
func (r *Rule) matches(subject, object string, action Action) bool {
	return r.Actions&action != 0 && matchPattern(r.Subject, subject) && matchPattern(r.Object, object)
}

func matchPattern(pattern, s string) bool {
	if pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(s, pattern[:len(pattern)-1])
	}
	return pattern == s
}

// Decision is the result of evaluating a Set.
type Decision struct {
	Effect Effect
	// Rule is the name of the deciding rule, or "" for the default.
	Rule string
}

// Set is an ordered policy. Create with NewSet.
type Set struct {
	name         string
	rules        []Rule
	defaultAllow bool
	evaluations  uint64
	denials      uint64
}

// NewSet creates a policy set. defaultAllow selects the default-permit
// (legacy) or default-deny (hardened) posture for unmatched triples.
func NewSet(name string, defaultAllow bool) *Set {
	return &Set{name: name, defaultAllow: defaultAllow}
}

// Name returns the set's name.
func (s *Set) Name() string { return s.name }

// Add appends a rule. Rules are stably sorted by descending priority.
func (s *Set) Add(r Rule) error {
	if r.Name == "" {
		return errors.New("policy: rule needs a name")
	}
	if r.Subject == "" || r.Object == "" {
		return fmt.Errorf("policy: rule %q needs subject and object", r.Name)
	}
	if r.Actions == 0 {
		return fmt.Errorf("policy: rule %q covers no actions", r.Name)
	}
	if r.Effect != Allow && r.Effect != Deny {
		return fmt.Errorf("policy: rule %q has invalid effect", r.Name)
	}
	s.rules = append(s.rules, r)
	sort.SliceStable(s.rules, func(i, j int) bool { return s.rules[i].Priority > s.rules[j].Priority })
	return nil
}

// Evaluate returns the decision for a triple: first matching rule wins,
// else the default posture.
func (s *Set) Evaluate(subject, object string, action Action) Decision {
	s.evaluations++
	for i := range s.rules {
		if s.rules[i].matches(subject, object, action) {
			d := Decision{Effect: s.rules[i].Effect, Rule: s.rules[i].Name}
			if d.Effect == Deny {
				s.denials++
			}
			return d
		}
	}
	if s.defaultAllow {
		return Decision{Effect: Allow}
	}
	s.denials++
	return Decision{Effect: Deny}
}

// Stats returns (evaluations, denials).
func (s *Set) Stats() (uint64, uint64) { return s.evaluations, s.denials }

// Digest returns a deterministic digest of the policy for measurement
// into the TPM (PCRPolicy), making the loaded policy attestable.
func (s *Set) Digest() cryptoutil.Digest {
	parts := make([][]byte, 0, len(s.rules)*2+2)
	parts = append(parts, []byte(s.name))
	if s.defaultAllow {
		parts = append(parts, []byte{1})
	} else {
		parts = append(parts, []byte{0})
	}
	for _, r := range s.rules {
		parts = append(parts, []byte(fmt.Sprintf("%s|%s|%s|%d|%d|%d", r.Name, r.Subject, r.Object, r.Actions, r.Effect, r.Priority)))
	}
	return cryptoutil.SumAll(parts...)
}

// Violation describes a policy denial observed at the enforcement point.
type Violation struct {
	Tx   hw.Transaction
	Rule string
}

// Gate compiles the policy into a bus gate enforcing it at the
// interconnect, reporting violations to onViolation (which may be nil).
// Object names are the bus region names resolved via mem.
func (s *Set) Gate(mem *hw.Memory, onViolation func(Violation)) hw.Gate {
	return hw.GateFunc(func(tx hw.Transaction) *hw.Fault {
		region, fault := mem.Find(tx.Addr, tx.Size)
		object := ""
		if fault == nil {
			object = region.Name
		}
		d := s.Evaluate(tx.Initiator, object, ActionFromTx(tx.Kind))
		if d.Effect == Allow {
			return nil
		}
		if onViolation != nil {
			onViolation(Violation{Tx: tx, Rule: d.Rule})
		}
		return &hw.Fault{
			Code:   hw.FaultBlocked,
			Addr:   tx.Addr,
			Region: object,
			Detail: fmt.Sprintf("policy %q rule %q denied %s by %s", s.name, d.Rule, tx.Kind, tx.Initiator),
		}
	})
}
