package manager

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The paper (Section III-C) uses a shared manager: "a source sends a request
// to the manager by specifying the destination and the communication
// requirements while the manager responds with the suitable configuration to
// apply on both source and destination sides". This file defines that wire
// protocol as fixed-size little-endian messages with a checksum, so ONI
// models can exchange them over any byte transport.

// RequestMsg is the source ONI → manager message.
type RequestMsg struct {
	// Src and Dst identify the ONIs.
	Src, Dst uint8
	// BERExponent encodes the target BER as 10^-BERExponent.
	BERExponent uint8
	// MaxCTCenti caps CT in hundredths (175 = 1.75); 0 = unconstrained.
	MaxCTCenti uint16
	// Objective is the optimization goal.
	Objective Objective
}

// ResponseMsg is the manager → ONIs configuration message.
type ResponseMsg struct {
	// Src and Dst echo the request.
	Src, Dst uint8
	// SchemeIndex selects the code in the manager's roster.
	SchemeIndex uint8
	// DACCode is the laser current setting.
	DACCode uint16
	// OK is false when no feasible configuration exists.
	OK bool
}

const (
	requestMsgLen  = 8
	responseMsgLen = 8
	msgTypeRequest = 0x51
	msgTypeReply   = 0x52
)

// checksum is a simple XOR fold over the payload bytes.
func checksum(b []byte) byte {
	var c byte
	for _, x := range b {
		c ^= x
	}
	return c
}

// Marshal serializes the request into its 8-byte wire form.
func (r RequestMsg) Marshal() []byte {
	b := make([]byte, requestMsgLen)
	b[0] = msgTypeRequest
	b[1] = r.Src
	b[2] = r.Dst
	b[3] = r.BERExponent
	binary.LittleEndian.PutUint16(b[4:6], r.MaxCTCenti)
	b[6] = byte(r.Objective)
	b[7] = checksum(b[:7])
	return b
}

// UnmarshalRequest parses and validates a wire request.
func UnmarshalRequest(b []byte) (RequestMsg, error) {
	if len(b) != requestMsgLen {
		return RequestMsg{}, fmt.Errorf("manager: request is %d bytes, want %d", len(b), requestMsgLen)
	}
	if b[0] != msgTypeRequest {
		return RequestMsg{}, fmt.Errorf("manager: bad request type %#x", b[0])
	}
	if checksum(b[:7]) != b[7] {
		return RequestMsg{}, fmt.Errorf("manager: request checksum mismatch")
	}
	r := RequestMsg{
		Src:         b[1],
		Dst:         b[2],
		BERExponent: b[3],
		MaxCTCenti:  binary.LittleEndian.Uint16(b[4:6]),
		Objective:   Objective(b[6]),
	}
	if err := r.Objective.Validate(); err != nil {
		return RequestMsg{}, err
	}
	return r, nil
}

// Marshal serializes the response into its 8-byte wire form.
func (r ResponseMsg) Marshal() []byte {
	b := make([]byte, responseMsgLen)
	b[0] = msgTypeReply
	b[1] = r.Src
	b[2] = r.Dst
	b[3] = r.SchemeIndex
	binary.LittleEndian.PutUint16(b[4:6], r.DACCode)
	if r.OK {
		b[6] = 1
	}
	b[7] = checksum(b[:7])
	return b
}

// UnmarshalResponse parses and validates a wire response.
func UnmarshalResponse(b []byte) (ResponseMsg, error) {
	if len(b) != responseMsgLen {
		return ResponseMsg{}, fmt.Errorf("manager: response is %d bytes, want %d", len(b), responseMsgLen)
	}
	if b[0] != msgTypeReply {
		return ResponseMsg{}, fmt.Errorf("manager: bad response type %#x", b[0])
	}
	if checksum(b[:7]) != b[7] {
		return ResponseMsg{}, fmt.Errorf("manager: response checksum mismatch")
	}
	return ResponseMsg{
		Src:         b[1],
		Dst:         b[2],
		SchemeIndex: b[3],
		DACCode:     binary.LittleEndian.Uint16(b[4:6]),
		OK:          b[6] == 1,
	}, nil
}

// Requirements converts the wire request into the manager's native form.
func (r RequestMsg) Requirements() Requirements {
	return Requirements{
		TargetBER: math.Pow(10, -float64(r.BERExponent)),
		MaxCT:     float64(r.MaxCTCenti) / 100,
		Objective: r.Objective,
	}
}

// RequestFor builds the wire request for a requirement set; the BER is
// rounded to the nearest decade (the protocol's resolution).
func RequestFor(src, dst uint8, req Requirements) (RequestMsg, error) {
	if req.TargetBER <= 0 || req.TargetBER >= 1 {
		return RequestMsg{}, fmt.Errorf("manager: target BER %g outside (0,1)", req.TargetBER)
	}
	exp := -math.Log10(req.TargetBER)
	rounded := math.Round(exp)
	if rounded < 1 || rounded > 255 {
		return RequestMsg{}, fmt.Errorf("manager: BER exponent %g out of protocol range", rounded)
	}
	if req.MaxCT < 0 || req.MaxCT > 655 {
		return RequestMsg{}, fmt.Errorf("manager: CT cap %g out of protocol range", req.MaxCT)
	}
	return RequestMsg{
		Src:         src,
		Dst:         dst,
		BERExponent: uint8(rounded),
		MaxCTCenti:  uint16(math.Round(req.MaxCT * 100)),
		Objective:   req.Objective,
	}, nil
}

// Serve answers one wire request: the full protocol round trip the paper
// describes, returning the response to broadcast to both ONIs.
func (m *Manager) Serve(wire []byte) []byte {
	req, err := UnmarshalRequest(wire)
	if err != nil {
		return ResponseMsg{OK: false}.Marshal()
	}
	dec, err := m.Configure(req.Requirements())
	if err != nil {
		return ResponseMsg{Src: req.Src, Dst: req.Dst, OK: false}.Marshal()
	}
	idx := uint8(0)
	for i, c := range m.schemes {
		if c.Name() == dec.Eval.Code.Name() {
			idx = uint8(i)
			break
		}
	}
	return ResponseMsg{
		Src:         req.Src,
		Dst:         req.Dst,
		SchemeIndex: idx,
		DACCode:     uint16(dec.DACCode),
		OK:          true,
	}.Marshal()
}
