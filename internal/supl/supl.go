// Package supl simulates the Secure User Plane Location service whose root
// certificates the paper finds in Motorola firmware (§5.1): A-GPS
// assistance over TLS on port 7275. A SUPL request carries
// privacy-sensitive context — the visible cellular base stations and WiFi
// access points — which is exactly why the paper notes "these operations
// require a secure channel", and why the §7 marketing proxy whitelists
// supl.google.com:7275 rather than break location for its subjects.
//
// The implementation mirrors internal/fota's structure: a TLS service
// authenticated under the special-purpose SUPL root, and a device client
// that refuses channels anchored anywhere else.
package supl

import (
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tangledmass/internal/certgen"
	"tangledmass/internal/chain"
	"tangledmass/internal/rootstore"
	"tangledmass/internal/wire"
)

// CellID identifies one observed cellular base station.
type CellID struct {
	MCC  int `json:"mcc"`
	MNC  int `json:"mnc"`
	LAC  int `json:"lac"`
	Cell int `json:"cell"`
}

// LocationRequest is the device's assistance query — the privacy-sensitive
// payload (§5.1: "including neighboring WiFi APs and cellular base
// stations").
type LocationRequest struct {
	Cells   []CellID `json:"cells"`
	WiFiAPs []string `json:"wifi_aps"` // BSSIDs
}

// AssistanceData is the server's answer.
type AssistanceData struct {
	// ApproxLat/ApproxLon is the coarse position inferred from the request.
	ApproxLat float64 `json:"approx_lat"`
	ApproxLon float64 `json:"approx_lon"`
	// EphemerisIDs lists the satellite ephemerides worth downloading.
	EphemerisIDs []int `json:"ephemeris_ids"`
}

// ErrChannelUntrusted mirrors fota.ErrChannelUntrusted for the SUPL root.
var ErrChannelUntrusted = errors.New("supl: assistance channel does not chain to a trusted SUPL root")

// Server is the assistance endpoint: one TLS listener answering each
// connection's LocationRequest with AssistanceData. Each connection gets
// 30 seconds; Close expires pending reads rather than waiting them out.
type Server struct {
	*wire.Listener
	cred tls.Certificate

	// Requests retains received queries — demonstrating exactly what the
	// operator of a SUPL service (or anyone who could intercept it) learns.
	reqMu    sync.Mutex
	requests []LocationRequest
}

// NewServer starts a SUPL server on 127.0.0.1 using the given service
// credential (a certificate chaining to the SUPL root).
func NewServer(service *certgen.Issued) (*Server, error) {
	s := &Server{
		cred: tls.Certificate{
			Certificate: [][]byte{service.Cert.Raw},
			PrivateKey:  service.Key,
		},
	}
	var err error
	if s.Listener, err = wire.Listen("127.0.0.1:0", s.handle); err != nil {
		return nil, fmt.Errorf("supl: listening: %w", err)
	}
	return s, nil
}

// ObservedRequests returns the location context the service has collected.
func (s *Server) ObservedRequests() []LocationRequest {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	out := make([]LocationRequest, len(s.requests))
	copy(out, s.requests)
	return out
}

func (s *Server) handle(conn net.Conn) {
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return
	}
	tconn := tls.Server(conn, &tls.Config{Certificates: []tls.Certificate{s.cred}})
	if err := tconn.Handshake(); err != nil {
		return
	}
	var req LocationRequest
	if err := json.NewDecoder(tconn).Decode(&req); err != nil {
		return
	}
	s.reqMu.Lock()
	s.requests = append(s.requests, req)
	s.reqMu.Unlock()
	if err := json.NewEncoder(tconn).Encode(assist(req)); err != nil {
		return
	}
	// Best-effort close_notify; the listener closes the raw conn.
	_ = tconn.Close()
}

// assist derives deterministic assistance data from the request — a toy
// geolocation that still demonstrates the information flow.
func assist(req LocationRequest) AssistanceData {
	var lat, lon float64
	for _, c := range req.Cells {
		lat += float64(c.LAC%180) - 90
		lon += float64(c.Cell%360) - 180
	}
	if n := len(req.Cells); n > 0 {
		lat /= float64(n)
		lon /= float64(n)
	}
	ids := make([]int, 0, 8)
	for i := 1; i <= 8; i++ {
		ids = append(ids, i)
	}
	return AssistanceData{ApproxLat: lat, ApproxLon: lon, EphemerisIDs: ids}
}

// Client is the device-side assistance client.
type Client struct {
	// Store is the device's effective root store; SUPLRoot pins the
	// special-purpose anchor the channel must terminate at.
	Store    *rootstore.Store
	SUPLRoot *x509.Certificate
	At       time.Time
}

// Fetch performs one assistance exchange, verifying the channel against the
// device store and the SUPL root before transmitting any location context.
func (c *Client) Fetch(addr, serverName string, req LocationRequest) (AssistanceData, error) {
	conn, err := tls.Dial("tcp", addr, &tls.Config{
		ServerName:         serverName,
		InsecureSkipVerify: true, // verified below against the device store
	})
	if err != nil {
		return AssistanceData{}, fmt.Errorf("supl: dialing %s: %w", addr, err)
	}
	defer conn.Close()
	presented := conn.ConnectionState().PeerCertificates
	if err := c.verifyChannel(presented); err != nil {
		return AssistanceData{}, err
	}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return AssistanceData{}, fmt.Errorf("supl: sending request: %w", err)
	}
	var data AssistanceData
	if err := json.NewDecoder(conn).Decode(&data); err != nil {
		return AssistanceData{}, fmt.Errorf("supl: reading assistance: %w", err)
	}
	return data, nil
}

func (c *Client) verifyChannel(presented []*x509.Certificate) error {
	if len(presented) == 0 {
		return ErrChannelUntrusted
	}
	if !c.Store.Contains(c.SUPLRoot) {
		return fmt.Errorf("%w: device store lacks the SUPL root", ErrChannelUntrusted)
	}
	v := chain.NewVerifier([]*x509.Certificate{c.SUPLRoot}, presented[1:], c.At)
	if !v.Validates(presented[0]) {
		return ErrChannelUntrusted
	}
	return nil
}
