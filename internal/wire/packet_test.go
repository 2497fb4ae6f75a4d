package wire

import "testing"

func TestTransportString(t *testing.T) {
	if TCP.String() != "tcp" || UDP.String() != "udp" {
		t.Errorf("TCP=%q UDP=%q", TCP.String(), UDP.String())
	}
	if Transport(47).String() != "proto(47)" {
		t.Errorf("unknown = %q", Transport(47).String())
	}
}

func TestTCPFlags(t *testing.T) {
	f := FlagSYN | FlagACK
	if !f.Has(FlagSYN) || !f.Has(FlagACK) || f.Has(FlagFIN) {
		t.Errorf("flag membership broken for %v", f)
	}
	if f.String() != "SYN|ACK" {
		t.Errorf("String = %q, want SYN|ACK", f.String())
	}
	if TCPFlags(0).String() != "none" {
		t.Errorf("zero flags = %q", TCPFlags(0).String())
	}
}

func TestIsSYN(t *testing.T) {
	syn := Packet{Proto: TCP, Flags: FlagSYN}
	if !syn.IsSYN() {
		t.Error("bare SYN should be IsSYN")
	}
	synAck := Packet{Proto: TCP, Flags: FlagSYN | FlagACK}
	if synAck.IsSYN() {
		t.Error("SYN|ACK should not be IsSYN")
	}
	udp := Packet{Proto: UDP, Flags: FlagSYN}
	if udp.IsSYN() {
		t.Error("UDP packet should not be IsSYN")
	}
}
