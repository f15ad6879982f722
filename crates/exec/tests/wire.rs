//! Wire-transport differential: a node served over a byte-stream (TCP
//! loopback) or channel transport behaves byte-identically to the same
//! node stepped in-process.

use sg_exec::{
    drive_round, encode, node_schedules, serve_node, ChannelTransport, LineTransport, Msg,
    SystolicNode, Transport,
};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use systolic_gossip::Network;

/// Drives vertex `watched` of `net` for `rounds` rounds over transport
/// `t`, feeding it exactly the deliveries an in-process fleet produces,
/// and returns the wire node's per-round sends.
fn drive_watched<T: Transport>(
    t: &mut T,
    net: &Network,
    watched: u32,
    rounds: u64,
) -> Vec<Vec<Msg>> {
    let g = net.build();
    let n = g.vertex_count();
    let sp = net.reference_protocol().expect("reference protocol");
    let schedules = node_schedules(&sp, n);

    // The in-process fleet runs every vertex; the wire node plays
    // `watched` and must produce identical sends given identical input.
    let mut fleet: Vec<SystolicNode> = (0..n)
        .map(|v| SystolicNode::new(v as u32, n as u32, schedules[v].clone()))
        .collect();
    t.send(&fleet[watched as usize].init_msg()).unwrap();

    let mut wire_sends = Vec::new();
    for r in 0..rounds {
        let mut outs: Vec<Vec<Msg>> = fleet.iter_mut().map(|nd| nd.on_round(r)).collect();
        let to_watched: Vec<Msg> = outs
            .iter()
            .flatten()
            .filter(|m| m.dest() == Some(watched))
            .cloned()
            .collect();
        let (dones, sends): (Vec<Msg>, Vec<Msg>) = drive_round(t, r, &to_watched)
            .unwrap()
            .into_iter()
            .partition(|m| matches!(m, Msg::Done { .. }));
        // The wire node announces `done` asynchronously right after the
        // completing delivery; the in-process driver collects it via
        // `take_done` instead, so it is compared separately.
        for d in &dones {
            assert_eq!(d.src(), watched);
        }
        assert_eq!(
            sends, outs[watched as usize],
            "round {r}: wire and in-process sends diverge"
        );
        wire_sends.push(sends);
        // Deliver everything fleet-internally too.
        let deliveries: Vec<Msg> = outs.iter_mut().flat_map(std::mem::take).collect();
        for msg in deliveries {
            let to = msg.dest().unwrap() as usize;
            fleet[to].on_message(&msg);
        }
        for nd in &mut fleet {
            nd.end_round(r + 1);
        }
    }
    t.send(&Msg::Done {
        from: u32::MAX,
        round: rounds,
        count: 0,
    })
    .unwrap();
    wire_sends
}

#[test]
fn channel_served_node_matches_in_process() {
    let (mut driver_side, mut node_side) = ChannelTransport::pair();
    let handle = std::thread::spawn(move || serve_node(&mut node_side));
    let sends = drive_watched(&mut driver_side, &Network::Hypercube { k: 3 }, 3, 12);
    drop(driver_side);
    handle.join().unwrap().unwrap();
    assert!(
        sends.iter().any(|s| !s.is_empty()),
        "the watched vertex must actually send"
    );
}

#[test]
fn tcp_served_node_matches_in_process() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        let mut t = LineTransport::new(reader, stream);
        serve_node(&mut t)
    });
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    let mut t = LineTransport::new(reader, stream);
    let sends = drive_watched(&mut t, &Network::Knodel { delta: 3, n: 8 }, 5, 10);
    drop(t);
    server.join().unwrap().unwrap();
    assert!(sends.iter().any(|s| !s.is_empty()));
}

#[test]
fn wire_node_announces_done_over_the_transport() {
    // P_2: one exchange completes both vertices; the wire node must
    // push its `done` line without being asked.
    let net = Network::Path { n: 2 };
    let sp = net.reference_protocol().unwrap();
    let schedules = node_schedules(&sp, 2);
    let (mut driver_side, mut node_side) = ChannelTransport::pair();
    let handle = std::thread::spawn(move || serve_node(&mut node_side));
    let node1 = SystolicNode::new(1, 2, schedules[1].clone());
    driver_side.send(&node1.init_msg()).unwrap();
    let _ = drive_round(
        &mut driver_side,
        0,
        &[Msg::Gossip {
            from: 0,
            to: 1,
            seq: 0,
            items: vec![0],
        }],
    )
    .unwrap();
    let done = driver_side.recv().unwrap().expect("done line");
    assert_eq!(
        done,
        Msg::Done {
            from: 1,
            round: 1,
            count: 2
        },
        "wire line was {}",
        encode(&done)
    );
    driver_side
        .send(&Msg::Done {
            from: u32::MAX,
            round: 1,
            count: 0,
        })
        .unwrap();
    handle.join().unwrap().unwrap();
}
