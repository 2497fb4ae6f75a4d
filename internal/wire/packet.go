package wire

import (
	"fmt"
	"time"
)

// Transport identifies the layer-4 protocol of a packet.
type Transport uint8

// Supported transports.
const (
	TCP Transport = 6  // IANA protocol number for TCP
	UDP Transport = 17 // IANA protocol number for UDP
)

// String returns the conventional protocol name.
func (t Transport) String() string {
	switch t {
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(t))
	}
}

// TCPFlags is the TCP flag bitfield.
type TCPFlags uint8

// TCP flag bits (low 8 of the flags field).
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
	FlagECE
	FlagCWR
)

// Has reports whether all flags in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// String renders the set flags in tcpdump order (e.g. "SYN|ACK").
func (f TCPFlags) String() string {
	if f == 0 {
		return "none"
	}
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagFIN, "FIN"}, {FlagSYN, "SYN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"},
		{FlagACK, "ACK"}, {FlagURG, "URG"}, {FlagECE, "ECE"}, {FlagCWR, "CWR"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
}

// Packet is one transport-layer datagram or segment as observed by a
// collector. Payload is the application bytes (empty for a bare SYN).
type Packet struct {
	Time    time.Time
	Src     Addr
	Dst     Addr
	SrcPort uint16
	DstPort uint16
	Proto   Transport
	Flags   TCPFlags // meaningful only for Proto == TCP
	Payload []byte
}
