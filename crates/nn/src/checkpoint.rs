//! Model checkpointing: a minimal, versioned binary format for a
//! network's flat parameters plus its BatchNorm running state.
//!
//! Long distributed runs need restartability; the format is deliberately
//! architecture-agnostic — it stores only the flat weight vector and BN
//! statistics, and loading validates the element counts against the
//! receiving network.

use crate::network::{BnState, Network};
use lcasgd_tensor::Tensor;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"LCCKPT01";

/// Writes a length-prefixed little-endian f32 slice (the primitive every
/// LC-ASGD on-disk format builds on; lcasgd-core's full training
/// checkpoint writes the same layout through the wire codec's helpers).
pub fn write_f32s(w: &mut impl Write, xs: &[f32]) -> io::Result<()> {
    w.write_all(&(xs.len() as u64).to_le_bytes())?;
    for &x in xs {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a slice written by [`write_f32s`], with a sanity cap against
/// corrupted length headers.
pub fn read_f32s(r: &mut impl Read) -> io::Result<Vec<f32>> {
    let mut len8 = [0u8; 8];
    r.read_exact(&mut len8)?;
    let len = u64::from_le_bytes(len8) as usize;
    // Sanity cap (16 GiB of f32s) against corrupted headers.
    if len > (1 << 32) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible tensor length"));
    }
    let mut out = Vec::with_capacity(len);
    let mut b4 = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut b4)?;
        out.push(f32::from_le_bytes(b4));
    }
    Ok(out)
}

/// A serialized model snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    pub params: Vec<f32>,
    pub bn: BnState,
}

impl Checkpoint {
    /// Snapshots a network.
    pub fn capture(net: &Network) -> Self {
        Checkpoint { params: net.flat_params(), bn: net.bn_state() }
    }

    /// Installs the snapshot into an architecture-compatible network.
    /// Panics (with the length mismatch) on incompatible architectures.
    pub fn restore(&self, net: &mut Network) {
        net.set_flat_params(&self.params);
        net.set_bn_state(&self.bn);
    }

    /// Writes the snapshot to a writer.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        write_f32s(w, &self.params)?;
        w.write_all(&(self.bn.means.len() as u64).to_le_bytes())?;
        for (mean, var) in self.bn.means.iter().zip(&self.bn.vars) {
            write_f32s(w, mean.data())?;
            write_f32s(w, var.data())?;
        }
        Ok(())
    }

    /// Reads a snapshot from a reader, validating the magic header.
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not an LC-ASGD checkpoint"));
        }
        let params = read_f32s(r)?;
        let mut len8 = [0u8; 8];
        r.read_exact(&mut len8)?;
        let layers = u64::from_le_bytes(len8) as usize;
        if layers > (1 << 24) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible BN layer count"));
        }
        let mut bn = BnState::default();
        for _ in 0..layers {
            let mean = read_f32s(r)?;
            let var = read_f32s(r)?;
            if mean.len() != var.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "BN mean/var length mismatch",
                ));
            }
            let c = mean.len();
            bn.means.push(Tensor::from_vec(mean, &[c]));
            bn.vars.push(Tensor::from_vec(var, &[c]));
        }
        Ok(Checkpoint { params, bn })
    }

    /// Atomically and durably saves to a file: writes a `<path>.tmp`
    /// sibling, fsyncs it, renames over the destination, and fsyncs the
    /// parent directory so a host crash cannot leave a truncated
    /// "committed" checkpoint.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut w = BufWriter::new(File::create(&tmp)?);
        self.write_to(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        drop(w);
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            File::open(dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Loads from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::read_from(&mut BufReader::new(File::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::mlp;
    use lcasgd_tensor::Rng;

    #[test]
    fn roundtrip_through_memory() {
        let mut rng = Rng::seed_from_u64(151);
        let net = mlp(&[4, 8, 3], true, &mut rng);
        let ck = Checkpoint::capture(&net);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn restore_transfers_weights_and_bn() {
        let mut rng = Rng::seed_from_u64(152);
        let net_a = mlp(&[4, 8, 3], true, &mut rng);
        let mut net_b = mlp(&[4, 8, 3], true, &mut rng); // different init
        assert_ne!(net_a.flat_params(), net_b.flat_params());
        Checkpoint::capture(&net_a).restore(&mut net_b);
        assert_eq!(net_a.flat_params(), net_b.flat_params());
        assert_eq!(net_a.bn_state(), net_b.bn_state());
    }

    #[test]
    fn rejects_garbage() {
        let garbage = b"definitely not a checkpoint";
        assert!(Checkpoint::read_from(&mut &garbage[..]).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let mut rng = Rng::seed_from_u64(153);
        let net = mlp(&[4, 8, 3], false, &mut rng);
        let mut buf = Vec::new();
        Checkpoint::capture(&net).write_to(&mut buf).unwrap();
        let cut = &buf[..buf.len() / 2];
        assert!(Checkpoint::read_from(&mut &cut[..]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let mut rng = Rng::seed_from_u64(154);
        let net = mlp(&[5, 6, 2], true, &mut rng);
        let ck = Checkpoint::capture(&net);
        let path = std::env::temp_dir().join("lcasgd_ckpt_test.bin");
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, ck);
    }
}
