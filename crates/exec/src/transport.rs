//! Message transports and the wire node loop.
//!
//! A [`Transport`] moves encoded [`Msg`] lines between a node and
//! whoever drives it. [`ChannelTransport`] runs over in-process
//! channels; [`LineTransport`] runs over any byte streams — stdin/
//! stdout for a real maelstrom-style process ([`serve_stdio`]), or a
//! TCP socket in the differential tests. [`serve_node`] is the node
//! loop behind either: `init` builds the node, each `round` tick
//! answers with the round's sends closed by an echoed `round` fence,
//! routed messages merge immediately (announcing `done` the moment
//! completion happens), and a driver-sent `done` shuts the loop down.

use crate::message::{decode, encode, Msg, NodeId};
use crate::node::SystolicNode;
use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::sync::mpsc::{Receiver, RecvError, Sender};

/// A bidirectional line-message channel.
pub trait Transport {
    /// Ships one message.
    fn send(&mut self, msg: &Msg) -> io::Result<()>;
    /// Receives the next message; `None` on orderly shutdown (EOF /
    /// disconnected peer).
    fn recv(&mut self) -> io::Result<Option<Msg>>;
}

/// Transport over in-process channels of encoded lines.
///
/// [`ChannelTransport::pair`] returns the two connected endpoints —
/// hand one to a thread running [`serve_node`] and drive from the
/// other.
pub struct ChannelTransport {
    tx: Sender<String>,
    rx: Receiver<String>,
    /// Locally queued lines (lets tests pre-load without a peer).
    queue: VecDeque<String>,
}

impl ChannelTransport {
    /// Two connected endpoints.
    pub fn pair() -> (Self, Self) {
        let (atx, brx) = std::sync::mpsc::channel();
        let (btx, arx) = std::sync::mpsc::channel();
        (
            Self {
                tx: atx,
                rx: arx,
                queue: VecDeque::new(),
            },
            Self {
                tx: btx,
                rx: brx,
                queue: VecDeque::new(),
            },
        )
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, msg: &Msg) -> io::Result<()> {
        self.tx
            .send(encode(msg))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up"))
    }

    fn recv(&mut self) -> io::Result<Option<Msg>> {
        let line = match self.queue.pop_front() {
            Some(l) => l,
            None => match self.rx.recv() {
                Ok(l) => l,
                Err(RecvError) => return Ok(None),
            },
        };
        decode(&line)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Transport speaking JSONL over byte streams.
pub struct LineTransport<R, W> {
    reader: R,
    writer: W,
}

impl<R: BufRead, W: Write> LineTransport<R, W> {
    /// Wraps a reader/writer pair.
    pub fn new(reader: R, writer: W) -> Self {
        Self { reader, writer }
    }
}

impl<R: BufRead, W: Write> Transport for LineTransport<R, W> {
    fn send(&mut self, msg: &Msg) -> io::Result<()> {
        self.writer.write_all(encode(msg).as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<Option<Msg>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if !line.trim().is_empty() {
                break;
            }
        }
        decode(line.trim())
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// The wire node loop: runs one [`SystolicNode`] behind a transport
/// until the peer hangs up or sends `done`. Byte-identical behavior to
/// an in-process node handed the same rounds and deliveries — the
/// `transport` differential test drives both and compares.
pub fn serve_node<T: Transport>(t: &mut T) -> io::Result<()> {
    let mut node: Option<SystolicNode> = None;
    let mut current = 0u64;
    while let Some(msg) = t.recv()? {
        match &msg {
            Msg::Init { .. } => {
                let built = SystolicNode::from_init(&msg)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad init"))?;
                node = Some(built);
            }
            Msg::Round { round, .. } => {
                current = *round;
                let n = node.as_mut().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "round before init")
                })?;
                for out in n.on_round(*round) {
                    t.send(&out)?;
                }
                // The fence: the driver reads until it sees the echo.
                let fence = Msg::Round {
                    round: *round,
                    from: n.id(),
                };
                t.send(&fence)?;
            }
            Msg::Gossip { .. } | Msg::Ack { .. } => {
                let n = node.as_mut().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "message before init")
                })?;
                n.on_message(&msg);
                // Deliveries land at the end of the ticked round, so
                // completion is stamped the same way the in-process
                // driver stamps it.
                n.end_round(current + 1);
                if let Some(done) = n.take_done() {
                    t.send(&done)?;
                }
            }
            Msg::Done { .. } => break,
        }
    }
    Ok(())
}

/// Runs one node over stdin/stdout — the maelstrom-style process entry
/// point (`sg-node`).
pub fn serve_stdio() -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut t = LineTransport::new(stdin.lock(), stdout.lock());
    serve_node(&mut t)
}

/// Hands a driver-side transport the node's deliveries for a round and
/// collects the node's sends up to the fence. A convenience for
/// driving wire nodes lockstep from tests and tools.
pub fn drive_round<T: Transport>(
    t: &mut T,
    round: u64,
    deliveries: &[Msg],
) -> io::Result<Vec<Msg>> {
    t.send(&Msg::Round {
        round,
        from: NodeId::MAX,
    })?;
    let mut sends = Vec::new();
    loop {
        match t.recv()? {
            Some(Msg::Round { round: r, .. }) if r == round => break,
            Some(m) => sends.push(m),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "node hung up mid-round",
                ))
            }
        }
    }
    for d in deliveries {
        t.send(d)?;
    }
    Ok(sends)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_round_trips_messages() {
        let (mut a, mut b) = ChannelTransport::pair();
        let msg = Msg::Gossip {
            from: 0,
            to: 1,
            seq: 7,
            items: vec![0, 2],
        };
        a.send(&msg).unwrap();
        assert_eq!(b.recv().unwrap(), Some(msg));
        drop(a);
        assert_eq!(b.recv().unwrap(), None);
    }

    #[test]
    fn line_transport_skips_blank_lines_and_reports_eof() {
        let input = format!(
            "\n{}\n\n{}\n",
            encode(&Msg::Round { round: 1, from: 9 }),
            encode(&Msg::Done {
                from: 2,
                round: 3,
                count: 4
            }),
        );
        let mut out: Vec<u8> = Vec::new();
        let mut t = LineTransport::new(input.as_bytes(), &mut out);
        assert_eq!(t.recv().unwrap(), Some(Msg::Round { round: 1, from: 9 }));
        assert!(matches!(t.recv().unwrap(), Some(Msg::Done { .. })));
        assert_eq!(t.recv().unwrap(), None);
    }
}
