package openflow

import (
	"encoding/binary"
	"fmt"
)

// Action type codes (OFPAT_*).
const (
	ActionTypeOutput   uint16 = 0
	ActionTypePushMPLS uint16 = 19
	ActionTypePopMPLS  uint16 = 20
	ActionTypeGroup    uint16 = 22
	ActionTypeSetField uint16 = 25
)

// Reserved port numbers (OFPP_*).
const (
	PortController uint32 = 0xfffffffd
	PortAny        uint32 = 0xffffffff
)

// Action is one OpenFlow action. Exactly the subset Scotch needs is
// supported: output (physical port, tunnel port, or controller), group,
// MPLS push/pop, and set-field (MPLS label or tunnel id).
type Action struct {
	Type uint16

	Port   uint32 // Output: destination port
	MaxLen uint16 // Output to controller: bytes to include

	GroupID uint32 // Group

	EtherType uint16 // PushMPLS/PopMPLS

	// SetField: exactly one of the following is used, selected by Field.
	Field     uint8 // oxmMPLSLabel or oxmTunnelID
	MPLSLabel uint32
	TunnelID  uint64
}

// OutputAction returns an action forwarding to a switch port.
func OutputAction(port uint32) Action { return Action{Type: ActionTypeOutput, Port: port} }

// GroupAction returns an action handing the packet to a group.
func GroupAction(id uint32) Action { return Action{Type: ActionTypeGroup, GroupID: id} }

// PushMPLSAction returns a push_mpls followed logically by set_field; the
// simulator folds the label into the push for brevity.
func PushMPLSAction(label uint32) Action {
	return Action{Type: ActionTypePushMPLS, EtherType: 0x8847, Field: oxmMPLSLabel, MPLSLabel: label}
}

func (a *Action) marshal(b []byte) ([]byte, error) {
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, a.Type)
	b = binary.BigEndian.AppendUint16(b, 0) // length placeholder
	switch a.Type {
	case ActionTypeOutput:
		b = binary.BigEndian.AppendUint32(b, a.Port)
		b = binary.BigEndian.AppendUint16(b, a.MaxLen)
		b = append(b, 0, 0, 0, 0, 0, 0)
	case ActionTypeGroup:
		b = binary.BigEndian.AppendUint32(b, a.GroupID)
	case ActionTypePushMPLS:
		b = binary.BigEndian.AppendUint16(b, a.EtherType)
		// Non-standard but compact: carry the label in the pad so one
		// action expresses push_mpls+set_field. Field stays oxmMPLSLabel.
		b = binary.BigEndian.AppendUint32(b, a.MPLSLabel)
		b = append(b, 0, 0)
	case ActionTypePopMPLS:
		b = binary.BigEndian.AppendUint16(b, a.EtherType)
		b = append(b, 0, 0)
	case ActionTypeSetField:
		switch a.Field {
		case oxmMPLSLabel:
			b = oxmHeader(b, oxmMPLSLabel, false, 4)
			b = binary.BigEndian.AppendUint32(b, a.MPLSLabel)
		case oxmTunnelID:
			b = oxmHeader(b, oxmTunnelID, false, 8)
			b = binary.BigEndian.AppendUint64(b, a.TunnelID)
		default:
			return nil, fmt.Errorf("openflow: set_field of unsupported OXM %d", a.Field)
		}
	default:
		return nil, fmt.Errorf("openflow: cannot marshal action type %d", a.Type)
	}
	for (len(b)-start)%8 != 0 {
		b = append(b, 0)
	}
	binary.BigEndian.PutUint16(b[start+2:], uint16(len(b)-start))
	return b, nil
}

func (a *Action) unmarshal(b []byte) ([]byte, error) {
	*a = Action{}
	if len(b) < 4 {
		return nil, fmt.Errorf("openflow: action header truncated")
	}
	a.Type = binary.BigEndian.Uint16(b)
	length := int(binary.BigEndian.Uint16(b[2:]))
	if length < 8 || length%8 != 0 || len(b) < length {
		return nil, fmt.Errorf("openflow: bad action length %d", length)
	}
	body := b[4:length]
	switch a.Type {
	case ActionTypeOutput:
		if len(body) < 6 {
			return nil, fmt.Errorf("openflow: output action truncated")
		}
		a.Port = binary.BigEndian.Uint32(body)
		a.MaxLen = binary.BigEndian.Uint16(body[4:])
	case ActionTypeGroup:
		if len(body) < 4 {
			return nil, fmt.Errorf("openflow: group action truncated")
		}
		a.GroupID = binary.BigEndian.Uint32(body)
	case ActionTypePushMPLS:
		if len(body) < 6 {
			return nil, fmt.Errorf("openflow: push_mpls action truncated")
		}
		a.EtherType = binary.BigEndian.Uint16(body)
		a.Field = oxmMPLSLabel
		a.MPLSLabel = binary.BigEndian.Uint32(body[2:])
	case ActionTypePopMPLS:
		if len(body) < 2 {
			return nil, fmt.Errorf("openflow: pop_mpls action truncated")
		}
		a.EtherType = binary.BigEndian.Uint16(body)
	case ActionTypeSetField:
		if len(body) < 4 {
			return nil, fmt.Errorf("openflow: set_field action truncated")
		}
		field := body[2] >> 1
		l := int(body[3])
		if len(body) < 4+l {
			return nil, fmt.Errorf("openflow: set_field value truncated")
		}
		v := body[4 : 4+l]
		a.Field = field
		switch field {
		case oxmMPLSLabel:
			if l != 4 {
				return nil, fmt.Errorf("openflow: set_field mpls length %d", l)
			}
			a.MPLSLabel = binary.BigEndian.Uint32(v)
		case oxmTunnelID:
			if l != 8 {
				return nil, fmt.Errorf("openflow: set_field tunnel length %d", l)
			}
			a.TunnelID = binary.BigEndian.Uint64(v)
		default:
			return nil, fmt.Errorf("openflow: set_field of unsupported OXM %d", field)
		}
	default:
		return nil, fmt.Errorf("openflow: cannot unmarshal action type %d", a.Type)
	}
	return b[length:], nil
}

func marshalActions(b []byte, actions []Action) ([]byte, error) {
	var err error
	for i := range actions {
		if b, err = actions[i].marshal(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// unmarshalActions appends the actions encoded in b to out.
func unmarshalActions(out []Action, b []byte) ([]Action, error) {
	for len(b) > 0 {
		var a Action
		var err error
		if b, err = a.unmarshal(b); err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// Instruction type codes (OFPIT_*).
const (
	InstrGotoTable    uint16 = 1
	InstrApplyActions uint16 = 4
)

// Instruction is a flow-entry instruction: either apply-actions or
// goto-table.
type Instruction struct {
	Type    uint16
	TableID uint8    // GotoTable
	Actions []Action // ApplyActions
}

// ApplyActions wraps actions in an apply-actions instruction.
func ApplyActions(actions ...Action) Instruction {
	return Instruction{Type: InstrApplyActions, Actions: actions}
}

// FlowMod1 returns a FlowMod whose instruction block is a single
// apply-actions of one action — the shape of nearly every rule the
// controller installs. The message, its instruction list, and its action
// list come from one combined allocation; the caller fills the remaining
// FlowMod fields.
func FlowMod1(a Action) *FlowMod {
	bx := &struct {
		fm   FlowMod
		inst [1]Instruction
		act  [1]Action
	}{}
	bx.act[0] = a
	bx.inst[0] = Instruction{Type: InstrApplyActions, Actions: bx.act[:]}
	bx.fm.Instructions = bx.inst[:]
	return &bx.fm
}

// PacketOut1 returns an unbuffered (OFP_NO_BUFFER) PacketOut carrying one
// action and the given frame, allocated together with its action list.
func PacketOut1(inPort uint32, a Action, data []byte) *PacketOut {
	bx := &struct {
		po  PacketOut
		act [1]Action
	}{po: PacketOut{BufferID: 0xffffffff, InPort: inPort, Data: data}}
	bx.act[0] = a
	bx.po.Actions = bx.act[:]
	return &bx.po
}

// Apply1 returns a one-entry instruction list applying a single action,
// with the list, instruction, and action in one allocation. This is the
// dominant rule shape on the admission hot paths; the composite-literal
// equivalent costs two allocations (the variadic slice plus the list).
func Apply1(a Action) []Instruction {
	bx := &struct {
		inst [1]Instruction
		act  [1]Action
	}{act: [1]Action{a}}
	bx.inst[0] = Instruction{Type: InstrApplyActions, Actions: bx.act[:]}
	return bx.inst[:]
}

// IsApply1 reports whether ins has the shape Apply1 builds: one
// apply-actions instruction carrying one action.
func IsApply1(ins []Instruction) bool {
	return len(ins) == 1 && ins[0].Type == InstrApplyActions && len(ins[0].Actions) == 1
}

// CloneInstructions returns a copy of ins that shares no storage with it,
// for a flow table that keeps a rule decoded into a reused message: the
// Apply1 shape in one allocation, any other in two (the instructions, and
// every action list in one block).
func CloneInstructions(ins []Instruction) []Instruction {
	if IsApply1(ins) {
		return Apply1(ins[0].Actions[0])
	}
	n := 0
	for i := range ins {
		n += len(ins[i].Actions)
	}
	out := append([]Instruction(nil), ins...)
	actions := make([]Action, 0, n)
	for i := range out {
		if out[i].Actions != nil {
			at := len(actions)
			actions = append(actions, out[i].Actions...)
			out[i].Actions = actions[at:len(actions):len(actions)]
		}
	}
	return out
}

// GotoTable returns a goto-table instruction.
func GotoTable(table uint8) Instruction {
	return Instruction{Type: InstrGotoTable, TableID: table}
}

func (in *Instruction) marshal(b []byte) ([]byte, error) {
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, in.Type)
	b = binary.BigEndian.AppendUint16(b, 0) // length placeholder
	switch in.Type {
	case InstrGotoTable:
		b = append(b, in.TableID, 0, 0, 0)
	case InstrApplyActions:
		b = append(b, 0, 0, 0, 0) // pad
		var err error
		if b, err = marshalActions(b, in.Actions); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("openflow: cannot marshal instruction type %d", in.Type)
	}
	binary.BigEndian.PutUint16(b[start+2:], uint16(len(b)-start))
	return b, nil
}

// unmarshal decodes one instruction into in, reusing the storage of its
// action list.
func (in *Instruction) unmarshal(b []byte) ([]byte, error) {
	actions := in.Actions[:0]
	*in = Instruction{}
	if len(b) < 4 {
		return nil, fmt.Errorf("openflow: instruction truncated")
	}
	in.Type = binary.BigEndian.Uint16(b)
	length := int(binary.BigEndian.Uint16(b[2:]))
	if length < 8 || len(b) < length {
		return nil, fmt.Errorf("openflow: bad instruction length %d", length)
	}
	body := b[4:length]
	switch in.Type {
	case InstrGotoTable:
		in.TableID = body[0]
	case InstrApplyActions:
		var err error
		if in.Actions, err = unmarshalActions(actions, body[4:]); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("openflow: cannot unmarshal instruction type %d", in.Type)
	}
	return b[length:], nil
}

func marshalInstructions(b []byte, ins []Instruction) ([]byte, error) {
	var err error
	for i := range ins {
		if b, err = ins[i].marshal(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// unmarshalInstructions decodes the instructions in b into out's storage:
// a reused list, and each reused instruction's action list, are
// overwritten in place.
func unmarshalInstructions(out []Instruction, b []byte) ([]Instruction, error) {
	// Fast path for a fresh list: exactly one apply-actions instruction
	// carrying exactly one action — the shape of every single-output rule,
	// i.e. nearly all rules the controller installs. Decode it into one
	// combined allocation (instruction slice + action slice) instead of two.
	if cap(out) == 0 && len(b) >= 12 &&
		binary.BigEndian.Uint16(b) == InstrApplyActions &&
		int(binary.BigEndian.Uint16(b[2:])) == len(b) &&
		int(binary.BigEndian.Uint16(b[10:])) == len(b)-8 {
		bx := &struct {
			inst [1]Instruction
			act  [1]Action
		}{}
		rest, err := bx.act[0].unmarshal(b[8:])
		if err == nil && len(rest) == 0 {
			bx.inst[0] = Instruction{Type: InstrApplyActions, Actions: bx.act[:]}
			return bx.inst[:], nil
		}
		// Malformed single action: fall through so the generic loop reports
		// the same error the slow path always has.
	}
	out = out[:0]
	for len(b) > 0 {
		n := len(out)
		if n < cap(out) {
			out = out[:n+1]
		} else {
			out = append(out, Instruction{})
		}
		var err error
		if b, err = out[n].unmarshal(b); err != nil {
			return nil, err
		}
	}
	return out, nil
}
