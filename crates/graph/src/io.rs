//! Graph serialization: whitespace edge lists (the interchange format of
//! SNAP / WebDataCommons dumps the paper's inputs ship as) and a compact
//! binary CSR format for fast reloads.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId, Weight};
use std::io::{self, BufRead, Read, Write};

/// Writes `g` as a text edge list: one `src dst weight` triple per line,
/// preceded by a `# nodes <n>` header that preserves isolated nodes.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_edge_list<W: Write>(g: &Graph, mut w: W) -> io::Result<()> {
    writeln!(w, "# nodes {}", g.num_nodes())?;
    for (u, v, wt) in g.all_edges() {
        writeln!(w, "{u} {v} {wt}")?;
    }
    Ok(())
}

/// Reads a text edge list produced by [`write_edge_list`] (or any
/// whitespace-separated `src dst [weight]` file; missing weights default
/// to 1; lines starting with `#` or `%` are comments, except the
/// `# nodes <n>` header).
///
/// The graph is **not** symmetrized — load exactly what the file says and
/// symmetrize with [`GraphBuilder`] if needed.
///
/// # Errors
///
/// Returns `InvalidData` for malformed lines, `OutOfMemory` when the node
/// count the file implies (its `# nodes` header or its largest node id)
/// cannot be allocated, and propagates I/O errors.
pub fn read_edge_list<R: BufRead>(r: R) -> io::Result<Graph> {
    let mut b = GraphBuilder::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# nodes ") {
            let n: usize = rest.trim().parse().map_err(|_| bad(lineno, line))?;
            b.ensure_nodes(n);
            continue;
        }
        if line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u: NodeId = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(lineno, line))?;
        let v: NodeId = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(lineno, line))?;
        let w: Weight = match it.next() {
            Some(t) => t.parse().map_err(|_| bad(lineno, line))?,
            None => 1,
        };
        b.add_edge(u, v, w);
    }
    b.try_build().map_err(|e| {
        io::Error::new(
            io::ErrorKind::OutOfMemory,
            format!("edge list names more nodes than fit in memory: {e}"),
        )
    })
}

fn bad(lineno: usize, line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed edge list at line {}: {line:?}", lineno + 1),
    )
}

const MAGIC: &[u8; 8] = b"KIMBAPG1";

/// Writes `g` in the binary CSR format (magic, counts, then the raw
/// offset/target/weight arrays, little-endian).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_binary<W: Write>(g: &Graph, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(g.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    // Stream the CSR arrays from the accessors rather than the backing
    // store, so compressed graphs serialize to the same format (their
    // blocks decode in sorted order, which is CSR order for graphs built
    // by GraphBuilder).
    let mut off = 0u64;
    w.write_all(&off.to_le_bytes())?;
    for u in g.nodes() {
        off += g.degree(u) as u64;
        w.write_all(&off.to_le_bytes())?;
    }
    for u in g.nodes() {
        for &t in g.neighbors(u).iter() {
            w.write_all(&t.to_le_bytes())?;
        }
    }
    for u in g.nodes() {
        for &wt in g.edge_weights(u).iter() {
            w.write_all(&wt.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a graph written by [`write_binary`].
///
/// The header's counts are not trusted: every array grows only as its
/// bytes arrive, so a header claiming more than the input holds fails
/// after allocating about as much as was read.
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic number, on arrays shorter than the
/// header claims, and on inconsistent arrays (offsets not starting at 0,
/// decreasing, or not ending at the edge count; a target out of range), and
/// propagates other I/O errors.
pub fn read_binary<R: Read>(mut r: R) -> io::Result<Graph> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a kimbap binary graph (bad magic)"));
    }
    let n = read_u64(&mut r)?;
    let m = read_u64(&mut r)?;
    let offsets = read_array(&mut r, n.saturating_add(1), "offsets", u64::from_le_bytes)?;
    let targets = read_array(&mut r, m, "targets", u32::from_le_bytes)?;
    let weights = read_array(&mut r, m, "weights", u64::from_le_bytes)?;
    if offsets[0] != 0
        || offsets.last() != Some(&m)
        || offsets.windows(2).any(|w| w[0] > w[1])
        || targets.iter().any(|&t| u64::from(t) >= n)
    {
        return Err(invalid("inconsistent CSR arrays"));
    }
    Ok(Graph::from_csr(offsets, targets, weights))
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads `count` little-endian values of `N` bytes each, in 64 KiB chunks.
/// The vector never reserves past what the bytes read so far can fill
/// (it at most doubles), nor past `count`, so it ends exactly `count`
/// long and a `count` the input cannot back costs no large allocation.
fn read_array<R: Read, T, const N: usize>(
    r: &mut R,
    count: u64,
    what: &str,
    decode: fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    const CHUNK: usize = 1 << 16;
    let truncated = || {
        invalid(format!(
            "truncated {what} array (header claims {count} entries)"
        ))
    };
    let count = usize::try_from(count).map_err(|_| truncated())?;
    let mut out: Vec<T> = Vec::new();
    let mut buf = vec![0u8; CHUNK.min(count.saturating_mul(N))];
    while out.len() < count {
        let take = (count - out.len()).min(CHUNK / N);
        let bytes = &mut buf[..take * N];
        r.read_exact(bytes).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => truncated(),
            _ => e,
        })?;
        if out.capacity() - out.len() < take {
            let grow = out.len().min(count - out.len()).max(take);
            out.try_reserve_exact(grow)
                .map_err(|e| io::Error::new(io::ErrorKind::OutOfMemory, e.to_string()))?;
        }
        out.extend(
            bytes
                .chunks_exact(N)
                .map(|c| decode(c.try_into().expect("chunks are N bytes"))),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn edge_list_roundtrip() {
        let g = gen::rmat(7, 4, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_preserves_isolated_nodes() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 5).ensure_nodes(10);
        let g = b.build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_nodes(), 10);
    }

    #[test]
    fn edge_list_defaults_weight_and_skips_comments() {
        let text = "% comment\n# another\n0 1\n1 2 7\n\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges(0).next().unwrap(), (1, 1));
        assert_eq!(g.edges(1).next().unwrap(), (2, 7));
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list("0 x 1\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn binary_roundtrip() {
        let g = gen::grid_road(9, 5, 2);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_write_is_tier_independent() {
        let g = gen::rmat(7, 4, 11);
        let mut raw_buf = Vec::new();
        write_binary(&g, &mut raw_buf).unwrap();
        let mut comp_buf = Vec::new();
        write_binary(&g.compress(), &mut comp_buf).unwrap();
        assert_eq!(raw_buf, comp_buf);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTAGRAPH_______"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// `g`'s `.kg` bytes with the header's node and edge counts replaced.
    fn with_counts(g: &Graph, n: u64, m: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(g, &mut buf).unwrap();
        buf[8..16].copy_from_slice(&n.to_le_bytes());
        buf[16..24].copy_from_slice(&m.to_le_bytes());
        buf
    }

    #[test]
    fn binary_rejects_inflated_header_without_allocating_it() {
        let g = gen::grid_road(4, 4, 0);
        let (n, m) = (g.num_nodes() as u64, g.num_edges() as u64);
        // 2^40 nodes would be an 8 TiB offset array; u64::MAX overflows.
        for (hn, hm) in [
            (1 << 40, m),
            (u64::MAX, m),
            (n, 1 << 40),
            (n, u64::MAX),
            (n + 1, m),
        ] {
            let err = read_binary(&with_counts(&g, hn, hm)[..]).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "n={hn} m={hm}: {err}"
            );
        }
    }

    #[test]
    fn binary_rejects_non_monotone_offsets() {
        let g = gen::grid_road(4, 4, 0);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Offset 3 (bytes 24 + 3*8) past the edge count: offsets decrease.
        let at = 24 + 3 * 8;
        buf[at..at + 8].copy_from_slice(&(g.num_edges() as u64 + 1).to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn edge_list_rejects_unallocatable_node_count() {
        let err = read_edge_list("# nodes 18446744073709551615\n0 1\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = gen::grid_road(4, 4, 0);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }
}
