//! Minimal binary tensor serialization (shape + little-endian `f32`s),
//! used by checkpointing.

use crate::optim::Param;
use crate::{Result, Tensor, TensorError};

/// Appends a tensor to `buf`: `rows u32 | cols u32 | data f32-LE…`.
pub fn write_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    buf.extend_from_slice(&(t.rows() as u32).to_le_bytes());
    buf.extend_from_slice(&(t.cols() as u32).to_le_bytes());
    for &v in t.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends a parameter's checkpoint state: its value, then Adam's `m` and
/// `v`. A parameter Adam never stepped holds no moments; it writes zero
/// moments of the value's shape, so the format does not depend on it.
pub fn write_param(buf: &mut Vec<u8>, p: &Param) {
    write_tensor(buf, p.value());
    match p.moments() {
        Some((m, v)) => {
            write_tensor(buf, m);
            write_tensor(buf, v);
        }
        None => {
            let (rows, cols) = p.value().shape();
            for _ in 0..2 {
                write_u32(buf, rows as u32);
                write_u32(buf, cols as u32);
                // `0.0f32` is four zero bytes in little-endian order.
                buf.resize(buf.len() + 4 * rows * cols, 0);
            }
        }
    }
}

/// Reads a parameter written by [`write_param`] (zeroed gradient),
/// advancing `input`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] on truncation, or
/// [`TensorError::ShapeMismatch`] if the moments do not match the value.
pub fn read_param(input: &mut &[u8]) -> Result<Param> {
    let value = read_tensor(input)?;
    let m = read_tensor(input)?;
    let v = read_tensor(input)?;
    Param::from_state(value, m, v)
}

/// Reads a tensor written by [`write_tensor`], advancing `input`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] on truncation.
pub fn read_tensor(input: &mut &[u8]) -> Result<Tensor> {
    let rows = read_u32(input)? as usize;
    let cols = read_u32(input)? as usize;
    let n = rows * cols;
    if input.len() < 4 * n {
        return Err(TensorError::InvalidArgument(format!(
            "truncated tensor payload: need {} bytes, have {}",
            4 * n,
            input.len()
        )));
    }
    let mut data = Vec::with_capacity(n);
    for i in 0..n {
        data.push(f32::from_le_bytes(
            input[4 * i..4 * i + 4].try_into().expect("4 bytes"),
        ));
    }
    *input = &input[4 * n..];
    Tensor::from_vec(rows, cols, data)
}

/// Reads a little-endian `u32`, advancing `input`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] on truncation.
pub fn read_u32(input: &mut &[u8]) -> Result<u32> {
    if input.len() < 4 {
        return Err(TensorError::InvalidArgument("truncated u32".into()));
    }
    let v = u32::from_le_bytes(input[..4].try_into().expect("4 bytes"));
    *input = &input[4..];
    Ok(v)
}

/// Appends a little-endian `u32`.
pub fn write_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal, seeded_rng};

    #[test]
    fn tensor_round_trips() {
        let t = normal(&mut seeded_rng(1), 3, 5, 1.0);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t);
        let mut slice = buf.as_slice();
        let back = read_tensor(&mut slice).unwrap();
        assert_eq!(back, t);
        assert!(slice.is_empty());
    }

    #[test]
    fn multiple_tensors_in_one_buffer() {
        let a = normal(&mut seeded_rng(2), 2, 2, 1.0);
        let b = normal(&mut seeded_rng(3), 1, 4, 1.0);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &a);
        write_tensor(&mut buf, &b);
        let mut s = buf.as_slice();
        assert_eq!(read_tensor(&mut s).unwrap(), a);
        assert_eq!(read_tensor(&mut s).unwrap(), b);
    }

    /// A parameter's full checkpoint state: value, then `m` and `v` (zero
    /// when Adam never allocated them).
    fn param_state(p: &Param) -> (Tensor, Tensor, Tensor) {
        let (r, c) = p.value().shape();
        let (m, v) = match p.moments() {
            Some((m, v)) => (m.clone(), v.clone()),
            None => (Tensor::zeros(r, c), Tensor::zeros(r, c)),
        };
        (p.value().clone(), m, v)
    }

    #[test]
    fn never_stepped_param_round_trips_with_zero_moments() {
        let p = Param::new(normal(&mut seeded_rng(5), 3, 4, 1.0));
        assert!(p.moments().is_none());
        let mut buf = Vec::new();
        write_param(&mut buf, &p);
        // Byte for byte what eagerly allocated zero moments would write.
        let mut eager = Vec::new();
        write_tensor(&mut eager, p.value());
        write_tensor(&mut eager, &Tensor::zeros(3, 4));
        write_tensor(&mut eager, &Tensor::zeros(3, 4));
        assert_eq!(buf, eager);
        let mut s = buf.as_slice();
        let back = read_param(&mut s).unwrap();
        assert!(s.is_empty());
        assert_eq!(param_state(&back), param_state(&p));
    }

    #[test]
    fn stepped_param_round_trips_its_moments() {
        use crate::optim::{Adam, Optimizer};
        let mut p = Param::new(normal(&mut seeded_rng(6), 2, 3, 1.0));
        p.accumulate(&normal(&mut seeded_rng(7), 2, 3, 1.0))
            .unwrap();
        Adam::new(0.1).step(&mut p).unwrap();
        let mut buf = Vec::new();
        write_param(&mut buf, &p);
        let back = read_param(&mut buf.as_slice()).unwrap();
        assert_eq!(param_state(&back), param_state(&p));
    }

    #[test]
    fn truncation_is_detected() {
        let t = normal(&mut seeded_rng(4), 2, 2, 1.0);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t);
        buf.truncate(buf.len() - 1);
        let mut s = buf.as_slice();
        assert!(read_tensor(&mut s).is_err());
    }
}
