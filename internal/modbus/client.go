package modbus

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a synchronous Modbus client over a single connection. It is
// safe for concurrent use; requests are serialized.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	dialect Dialect
	unit    byte
	txn     uint16
	timeout time.Duration
}

// NewClient wraps an established connection. A zero timeout disables
// deadlines (useful with net.Pipe in tests and simulations).
func NewClient(conn net.Conn, dialect Dialect, unit byte, timeout time.Duration) *Client {
	return &Client{conn: conn, dialect: dialect, unit: unit, timeout: timeout}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one semantic PDU and returns the semantic response.
func (c *Client) roundTrip(req PDU) (PDU, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.txn++
	txn := c.txn
	wire := c.dialect.Wrap(req)
	out, err := EncodeFrame(Frame{Transaction: txn, Unit: c.unit, PDU: wire})
	if err != nil {
		return PDU{}, err
	}
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return PDU{}, fmt.Errorf("modbus: set deadline: %w", err)
		}
	}
	if _, err := c.conn.Write(out); err != nil {
		return PDU{}, fmt.Errorf("modbus: write: %w", err)
	}
	resp, err := ReadFrame(c.conn)
	if err != nil {
		return PDU{}, fmt.Errorf("modbus: read: %w", err)
	}
	if resp.Transaction != txn {
		return PDU{}, fmt.Errorf("%w: sent %d got %d", ErrTxnMismatch, txn, resp.Transaction)
	}
	// An exception to a dialect-auth failure comes back in standard
	// framing (flag set, single code byte); try dialect unwrap first and
	// fall back to raw exception interpretation.
	sem, err := c.dialect.Unwrap(resp.PDU)
	if err != nil {
		if resp.PDU.IsException() && len(resp.PDU.Data) == 1 {
			return PDU{}, &ExceptionError{Function: resp.PDU.Function &^ exceptionFlag, Code: resp.PDU.Data[0]}
		}
		return PDU{}, err
	}
	if sem.IsException() {
		code := byte(0)
		if len(sem.Data) > 0 {
			code = sem.Data[0]
		}
		return PDU{}, &ExceptionError{Function: sem.Function &^ exceptionFlag, Code: code}
	}
	return sem, nil
}

// ReadInput reads count input registers starting at start.
func (c *Client) ReadInput(start, count uint16) ([]uint16, error) {
	resp, err := c.roundTrip(PDU{Function: FuncReadInput, Data: ReadRequest(start, count)})
	if err != nil {
		return nil, err
	}
	return BytesToRegisters(resp.Data)
}

// WriteRegister writes one holding register.
func (c *Client) WriteRegister(addr, value uint16) error {
	_, err := c.roundTrip(PDU{Function: FuncWriteSingleReg, Data: WriteSingleRequest(addr, value)})
	return err
}
