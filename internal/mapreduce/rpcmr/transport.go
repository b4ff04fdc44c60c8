package rpcmr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/mapreduce"
)

// Streaming shuffle transport.
//
// Reducers fetch remote map outputs over a purpose-built raw-TCP protocol
// that streams a partition as record frames — the
// uint32-length-prefixed layout of mapreduce/frame.go, which model sections
// use too — in bounded chunks. It is the only worker-to-worker
// data path, and its listener is a worker's only socket: net/rpc carries
// the workers' calls to the master alone, and the master dials no worker.
//
// Wire protocol, little-endian throughout. One connection serves many
// sequential requests (reducers pool connections per peer):
//
//	request:  uint32 magic "DPS3" | uint32 jobID | uint32 mapTask |
//	          uint32 partition
//	response: uint8 status
//	  status 1 (error):  uint32 msgLen | msg   — connection stays usable
//	  status 0 (ok):     chunk stream:
//	    chunk:  uint32 len | len bytes of whole frames
//	    end:    len == 0, then uint32 recordCount
//
// A request with any other magic closes the connection unanswered. A chunk
// always holds whole frames and closes once it reaches shuffleChunkBytes,
// so the fetcher decodes each chunk independently and never buffers more
// than one chunk plus the decoded pairs. Every length is the peer's claim:
// the fetcher allocates for it only as the bytes arrive
// (mapreduce.ReadClaimed) and refuses an error message longer than
// maxShuffleErrBytes.
const (
	shuffleMagic = 0x33535044 // "DPS3"
	// shuffleRequestBytes is the fixed size of one request.
	shuffleRequestBytes = 16

	// shuffleChunkBytes bounds how much framed data one chunk carries; a
	// reducer never holds a peer's whole partition in a single reply
	// buffer.
	shuffleChunkBytes = 256 << 10
	// maxShuffleErrBytes caps a status-1 reply's message.
	maxShuffleErrBytes = 64 << 10
	// maxIdleStreamsPerPeer caps pooled idle connections per peer.
	maxIdleStreamsPerPeer = 4
	// shuffleIOTimeout bounds one request/response exchange so a hung
	// peer surfaces as a retriable error instead of a stuck reducer.
	shuffleIOTimeout = 60 * time.Second
	// shuffleFetchers bounds a reduce task's concurrent fetches.
	shuffleFetchers = 4
	// shuffleRetries is how many times a transient fetch failure is
	// retried (with exponential backoff from shuffleRetryBackoff) before
	// the map output is declared lost.
	shuffleRetries      = 2
	shuffleRetryBackoff = 25 * time.Millisecond
)

// errShuffleMissing marks a permanent fetch failure: the peer is alive
// but no longer has the map output. Retrying the same peer cannot help;
// only the master re-executing the map task can.
var errShuffleMissing = errors.New("rpcmr: map output missing on peer")

// fetchStats accounts one streamed fetch at the transport level.
type fetchStats struct {
	// wireBytes is the chunk payloads plus their length headers.
	wireBytes int64
	records   int64
}

// ---- server side ----

// serveShuffleLoop accepts streaming shuffle connections until the
// listener closes.
func (w *Worker) serveShuffleLoop(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		go w.serveShuffleConn(conn)
	}
}

// serveShuffleConn answers fetch requests on one connection until the
// peer hangs up or an I/O error occurs.
func (w *Worker) serveShuffleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var chunk []byte // reused across this connection's requests
	for {
		var req [shuffleRequestBytes]byte
		if _, err := io.ReadFull(br, req[:]); err != nil {
			return
		}
		if binary.LittleEndian.Uint32(req[0:4]) != shuffleMagic {
			return
		}
		jobID := int(binary.LittleEndian.Uint32(req[4:8]))
		mapTask := int(binary.LittleEndian.Uint32(req[8:12]))
		partition := int(binary.LittleEndian.Uint32(req[12:16]))

		pairs, err := w.partitionForShuffle(jobID, mapTask, partition)
		if err != nil {
			msg := err.Error()
			bw.WriteByte(1)
			var n [4]byte
			binary.LittleEndian.PutUint32(n[:], uint32(len(msg)))
			bw.Write(n[:])
			bw.WriteString(msg)
			if err := bw.Flush(); err != nil {
				return
			}
			continue
		}
		bw.WriteByte(0)
		if chunk, err = w.streamPartition(bw, chunk, pairs, shuffleChunkBytes, jobID, mapTask, partition); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// partitionForShuffle resolves a stored map-output partition.
func (w *Worker) partitionForShuffle(jobID, mapTask, partition int) ([]mapreduce.Pair, error) {
	w.mu.Lock()
	parts, ok := w.store[storeKey{jobID: jobID, mapTask: mapTask}]
	w.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rpcmr: map output %d/%d not on this worker", jobID, mapTask)
	}
	if partition < 0 || partition >= len(parts) {
		return nil, fmt.Errorf("rpcmr: partition %d out of range", partition)
	}
	return parts[partition], nil
}

// streamPartition frames pairs into chunks of about chunkBytes and writes
// them to bw, assembling each chunk in the scratch buffer chunk, which it
// returns for reuse. The listener always passes shuffleChunkBytes; tests
// pass smaller sizes to build multi-chunk responses.
func (w *Worker) streamPartition(bw *bufio.Writer, chunk []byte, pairs []mapreduce.Pair, chunkBytes, jobID, mapTask, partition int) ([]byte, error) {
	chunkIdx := 0
	emit := func() error {
		if hook := w.shuffleChunkHook; hook != nil {
			if err := hook(jobID, mapTask, partition, chunkIdx); err != nil {
				return err
			}
		}
		chunkIdx++
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(chunk)))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		_, err := bw.Write(chunk)
		chunk = chunk[:0]
		return err
	}

	chunk = chunk[:0]
	for _, p := range pairs {
		chunk = mapreduce.AppendFrame(chunk, p)
		if len(chunk) >= chunkBytes {
			if err := emit(); err != nil {
				return chunk, err
			}
		}
	}
	if len(chunk) > 0 {
		if err := emit(); err != nil {
			return chunk, err
		}
	}
	var end [8]byte // zero length, then the record count
	binary.LittleEndian.PutUint32(end[4:8], uint32(len(pairs)))
	_, err := bw.Write(end[:])
	return chunk, err
}

// ---- client side ----

// shuffleStream is one pooled connection to a peer's shuffle listener.
type shuffleStream struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// getStream pops an idle pooled connection to addr or dials a new one.
func (w *Worker) getStream(addr string) (*shuffleStream, error) {
	w.streamMu.Lock()
	if pool := w.streams[addr]; len(pool) > 0 {
		s := pool[len(pool)-1]
		w.streams[addr] = pool[:len(pool)-1]
		w.streamMu.Unlock()
		return s, nil
	}
	w.streamMu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &shuffleStream{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}, nil
}

// putStream returns a healthy connection to the pool (or closes it when
// the pool is full or the worker is shutting down).
func (w *Worker) putStream(addr string, s *shuffleStream) {
	w.streamMu.Lock()
	if w.streams != nil && len(w.streams[addr]) < maxIdleStreamsPerPeer {
		w.streams[addr] = append(w.streams[addr], s)
		w.streamMu.Unlock()
		return
	}
	w.streamMu.Unlock()
	s.conn.Close()
}

// closeStreams drops every pooled connection.
func (w *Worker) closeStreams() {
	w.streamMu.Lock()
	for _, pool := range w.streams {
		for _, s := range pool {
			s.conn.Close()
		}
	}
	w.streams = map[string][]*shuffleStream{}
	w.streamMu.Unlock()
}

// fetchStream retrieves one map-output partition over the streaming
// transport. The returned error is errShuffleMissing (permanent) when the
// peer reports the data gone; any other error is transient and worth a
// retry.
func (w *Worker) fetchStream(addr string, jobID, mapTask, partition int) ([]mapreduce.Pair, fetchStats, error) {
	var stats fetchStats
	s, err := w.getStream(addr)
	if err != nil {
		return nil, stats, err
	}
	pairs, stats, err := fetchOnStream(s, jobID, mapTask, partition)
	if err != nil {
		// Even a missing-partition reply leaves the stream at a request
		// boundary, but a pooled conn is cheap to rebuild — closing on
		// every error keeps the pool free of half-consumed streams.
		s.conn.Close()
		return nil, stats, err
	}
	w.putStream(addr, s)
	return pairs, stats, nil
}

func fetchOnStream(s *shuffleStream, jobID, mapTask, partition int) ([]mapreduce.Pair, fetchStats, error) {
	s.conn.SetDeadline(time.Now().Add(shuffleIOTimeout))
	defer s.conn.SetDeadline(time.Time{})

	var req [shuffleRequestBytes]byte
	binary.LittleEndian.PutUint32(req[0:4], shuffleMagic)
	binary.LittleEndian.PutUint32(req[4:8], uint32(jobID))
	binary.LittleEndian.PutUint32(req[8:12], uint32(mapTask))
	binary.LittleEndian.PutUint32(req[12:16], uint32(partition))
	if _, err := s.bw.Write(req[:]); err != nil {
		return nil, fetchStats{}, err
	}
	if err := s.bw.Flush(); err != nil {
		return nil, fetchStats{}, err
	}
	return readResponse(s.br)
}

// readResponse decodes one response: the pairs of a status-0 chunk stream,
// or the peer's status-1 message as an errShuffleMissing error.
func readResponse(br *bufio.Reader) ([]mapreduce.Pair, fetchStats, error) {
	var stats fetchStats
	status, err := br.ReadByte()
	if err != nil {
		return nil, stats, err
	}
	var n [4]byte
	switch status {
	case 0:
	case 1:
		if _, err := io.ReadFull(br, n[:]); err != nil {
			return nil, stats, err
		}
		msgLen := binary.LittleEndian.Uint32(n[:])
		if msgLen > maxShuffleErrBytes {
			return nil, stats, fmt.Errorf("rpcmr: shuffle error reply of %d bytes exceeds %d", msgLen, maxShuffleErrBytes)
		}
		msg := make([]byte, msgLen)
		if _, err := io.ReadFull(br, msg); err != nil {
			return nil, stats, err
		}
		return nil, stats, fmt.Errorf("%w: %s", errShuffleMissing, msg)
	default:
		return nil, stats, fmt.Errorf("rpcmr: bad shuffle reply status %d", status)
	}

	var pairs []mapreduce.Pair
	for {
		if _, err := io.ReadFull(br, n[:]); err != nil {
			return nil, stats, err
		}
		size := int(binary.LittleEndian.Uint32(n[:]))
		if size == 0 {
			if _, err := io.ReadFull(br, n[:]); err != nil {
				return nil, stats, err
			}
			if got := int64(binary.LittleEndian.Uint32(n[:])); got != stats.records {
				return nil, stats, fmt.Errorf("rpcmr: shuffle stream decoded %d records, peer sent %d", stats.records, got)
			}
			return pairs, stats, nil
		}
		// A fresh buffer per chunk: decoded values sub-slice it, so one
		// allocation serves every record of the chunk.
		chunk, err := mapreduce.ReadClaimed(br, nil, size)
		if err != nil {
			return nil, stats, err
		}
		before := len(pairs)
		if pairs, err = mapreduce.DecodeFrames(pairs, chunk); err != nil {
			return nil, stats, err
		}
		stats.records += int64(len(pairs) - before)
		stats.wireBytes += int64(size) + 4
	}
}
