//! Table lookups and structural ops (time slicing, concatenation, per-row
//! scaling).

use rayon::prelude::*;

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Below this many output scalars the scatter runs serially — banding a
/// small table costs more in id re-scans than it saves.
const PAR_SCATTER_MIN: usize = 16_384;

/// Scatter-adds gradient rows of width `d` into a zeroed `[v, d]` table
/// gradient: row `rows[i]` receives `g[i*d..(i+1)*d]`.
///
/// Parallelism is over **destination** bands: each band owns a contiguous
/// range of table rows, scans every id, and accumulates only its own hits,
/// in id order. Each output row therefore sees its adds in exactly the
/// serial order, so the result is bit-identical to the serial loop for
/// *every* band count — determinism here doesn't depend on the pool size
/// at all. Bands write disjoint rows, so no reduction pass is needed.
pub(crate) fn scatter_add_rows(
    rows: &[usize],
    g: &[f32],
    v: usize,
    d: usize,
    bands: usize,
) -> Vec<f32> {
    let mut dt = vec![0.0f32; v * d];
    let band_rows = if bands <= 1 { v } else { v.div_ceil(bands) };
    if band_rows >= v || v * d < PAR_SCATTER_MIN {
        scatter_band(rows, g, d, &mut dt, 0);
    } else {
        dt.par_chunks_mut(band_rows * d).enumerate().for_each(|(c, band)| {
            scatter_band(rows, g, d, band, c * band_rows);
        });
    }
    dt
}

/// Accumulates the ids landing in `[row0, row0 + band.len()/d)` into `band`.
fn scatter_band(rows: &[usize], g: &[f32], d: usize, band: &mut [f32], row0: usize) {
    let n_rows = band.len() / d;
    for (&r, grow) in rows.iter().zip(g.chunks(d)) {
        let Some(local) = r.checked_sub(row0) else { continue };
        if local >= n_rows {
            continue;
        }
        let dst = &mut band[local * d..(local + 1) * d];
        for (o, &gv) in dst.iter_mut().zip(grow) {
            *o += gv;
        }
    }
}

impl Tape {
    /// Gathers rows of an embedding table: `table` is `[V, d]`, `ids` has
    /// `ids.len()` entries; the output is `[*out_batch_dims, d]` where the
    /// product of `out_batch_dims` equals `ids.len()`. Backward scatter-adds
    /// into the table gradient, so repeated ids accumulate correctly.
    ///
    /// # Panics
    /// Panics if any id is out of range or the dims don't multiply out.
    pub fn embedding(&mut self, table: Var, ids: &[u32], out_batch_dims: &[usize]) -> Var {
        let tv = self.value(table);
        assert_eq!(tv.shape().rank(), 2, "table must be [V, d], got {}", tv.shape());
        let (v, d) = (tv.shape().dim(0), tv.shape().dim(1));
        let n: usize = out_batch_dims.iter().product();
        assert_eq!(n, ids.len(), "batch dims {out_batch_dims:?} don't cover {} ids", ids.len());
        let mut out = Vec::with_capacity(n * d);
        for &id in ids {
            let id = id as usize;
            assert!(id < v, "item id {id} out of range for table with {v} rows");
            out.extend_from_slice(&tv.data()[id * d..(id + 1) * d]);
        }
        let mut dims = out_batch_dims.to_vec();
        dims.push(d);
        let rows: Vec<usize> = ids.iter().map(|&id| id as usize).collect();
        self.push(
            Tensor::from_vec(dims, out),
            vec![table],
            Some(Box::new(move |g: &Tensor| {
                let bands = rayon::current_num_threads();
                let dt = scatter_add_rows(&rows, g.data(), v, d, bands);
                vec![Tensor::from_vec([v, d], dt)]
            })),
        )
    }

    /// Selects timestep `t` from a `[B, T, d]` tensor, producing `[B, d]`.
    /// Backward scatters the gradient back into the selected slice.
    pub fn select_time(&mut self, x: Var, t: usize) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.shape().rank(), 3, "select_time expects [B,T,d], got {}", xv.shape());
        let (b, tt, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
        assert!(t < tt, "timestep {t} out of range 0..{tt}");
        let mut out = Vec::with_capacity(b * d);
        for i in 0..b {
            let start = (i * tt + t) * d;
            out.extend_from_slice(&xv.data()[start..start + d]);
        }
        self.push(
            Tensor::from_vec([b, d], out),
            vec![x],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = vec![0.0f32; b * tt * d];
                for i in 0..b {
                    let start = (i * tt + t) * d;
                    dx[start..start + d].copy_from_slice(&g.data()[i * d..(i + 1) * d]);
                }
                vec![Tensor::from_vec([b, tt, d], dx)]
            })),
        )
    }

    /// Gathers arbitrary `(batch, time)` positions from a `[B, T, d]`
    /// tensor into `[N, d]` (cloze-style objectives collect the hidden
    /// states of masked positions this way). Backward scatter-adds, so
    /// duplicate positions accumulate.
    pub fn gather_positions(&mut self, x: Var, positions: &[(usize, usize)]) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.shape().rank(), 3, "gather_positions expects [B,T,d], got {}", xv.shape());
        let (b, t, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
        let n = positions.len();
        let mut out = Vec::with_capacity(n * d);
        for &(bi, ti) in positions {
            assert!(bi < b && ti < t, "position ({bi},{ti}) outside [{b},{t}]");
            let start = (bi * t + ti) * d;
            out.extend_from_slice(&xv.data()[start..start + d]);
        }
        let rows: Vec<usize> = positions.iter().map(|&(bi, ti)| bi * t + ti).collect();
        self.push(
            Tensor::from_vec([n, d], out),
            vec![x],
            Some(Box::new(move |g: &Tensor| {
                let bands = rayon::current_num_threads();
                let dx = scatter_add_rows(&rows, g.data(), b * t, d, bands);
                vec![Tensor::from_vec([b, t, d], dx)]
            })),
        )
    }

    /// The representation at the final timestep, `[B, T, d] -> [B, d]`.
    /// With left-padded sequences this is the user representation
    /// (Eq. 13 of the paper).
    pub fn last_time(&mut self, x: Var) -> Var {
        let t = self.value(x).shape().dim(1);
        self.select_time(x, t - 1)
    }

    /// Concatenates along axis 0. Trailing dims must match. Used to stack
    /// the two augmented views into the `2N` contrastive batch.
    pub fn concat0(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        assert_eq!(
            av.shape().dims()[1..],
            bv.shape().dims()[1..],
            "concat0 trailing dims differ: {} vs {}",
            av.shape(),
            bv.shape()
        );
        let (na, nb) = (av.shape().dim(0), bv.shape().dim(0));
        let mut dims = av.shape().dims().to_vec();
        dims[0] = na + nb;
        let mut out = Vec::with_capacity(av.len() + bv.len());
        out.extend_from_slice(av.data());
        out.extend_from_slice(bv.data());
        let (la, shape_a, shape_b) = (av.len(), av.shape().clone(), bv.shape().clone());
        self.push(
            Tensor::from_vec(dims, out),
            vec![a, b],
            Some(Box::new(move |g: &Tensor| {
                vec![
                    Tensor::from_vec(shape_a.clone(), g.data()[..la].to_vec()),
                    Tensor::from_vec(shape_b.clone(), g.data()[la..].to_vec()),
                ]
            })),
        )
    }

    /// Concatenates along the **last** dimension: `[N, da] ++ [N, db] ->
    /// [N, da+db]` (rank 2 only — this feeds NCF's MLP tower with
    /// `[user ; item]` pairs).
    pub fn concat_last(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        assert_eq!(av.shape().rank(), 2, "concat_last expects rank 2, got {}", av.shape());
        assert_eq!(bv.shape().rank(), 2, "concat_last expects rank 2, got {}", bv.shape());
        let (n, da) = (av.shape().dim(0), av.shape().dim(1));
        let (nb, db) = (bv.shape().dim(0), bv.shape().dim(1));
        assert_eq!(n, nb, "row counts differ: {} vs {}", av.shape(), bv.shape());
        let mut out = Vec::with_capacity(n * (da + db));
        for (ra, rb) in av.data().chunks(da).zip(bv.data().chunks(db)) {
            out.extend_from_slice(ra);
            out.extend_from_slice(rb);
        }
        self.push(
            Tensor::from_vec([n, da + db], out),
            vec![a, b],
            Some(Box::new(move |g: &Tensor| {
                let mut ga = Vec::with_capacity(n * da);
                let mut gb = Vec::with_capacity(n * db);
                for row in g.data().chunks(da + db) {
                    ga.extend_from_slice(&row[..da]);
                    gb.extend_from_slice(&row[da..]);
                }
                vec![Tensor::from_vec([n, da], ga), Tensor::from_vec([n, db], gb)]
            })),
        )
    }

    /// Multiplies each length-`d` row by a constant per-row weight
    /// (timeline masking: zero out padded positions). `weights.len()` must
    /// equal the number of rows.
    pub fn scale_rows_const(&mut self, x: Var, weights: &[f32]) -> Var {
        let xv = self.value(x);
        let d = xv.shape().last_dim();
        let rows = xv.shape().rows();
        assert_eq!(rows, weights.len(), "{rows} rows vs {} weights", weights.len());
        let mut out = xv.clone();
        for (row, &w) in out.data_mut().chunks_mut(d).zip(weights) {
            for v in row.iter_mut() {
                *v *= w;
            }
        }
        let weights = weights.to_vec();
        self.push(
            out,
            vec![x],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = g.clone();
                for (row, &w) in dx.data_mut().chunks_mut(d).zip(&weights) {
                    for v in row.iter_mut() {
                        *v *= w;
                    }
                }
                vec![dx]
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_gathers_rows() {
        let mut t = Tape::new();
        let table = t.leaf(Tensor::from_vec([3, 2], vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]));
        let e = t.embedding(table, &[2, 0, 2], &[3]);
        assert_eq!(t.value(e).shape().dims(), &[3, 2]);
        assert_eq!(t.value(e).data(), &[20.0, 21.0, 0.0, 1.0, 20.0, 21.0]);
    }

    #[test]
    fn embedding_backward_accumulates_repeats() {
        let mut t = Tape::new();
        let table = t.leaf(Tensor::zeros([3, 2]));
        let e = t.embedding(table, &[1, 1, 0], &[3]);
        let s = t.sum_all(e);
        let g = t.backward(s);
        let dt = g.get(table).unwrap();
        assert_eq!(dt.data(), &[1.0, 1.0, 2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn banded_scatter_is_bit_identical_to_serial() {
        // v*d = 256*64 clears PAR_SCATTER_MIN, so bands > 1 really take the
        // parallel path; run on an explicit pool so the bands execute on
        // real workers. Destination banding preserves the per-row add
        // order, so every band count must agree bit-for-bit.
        let (v, d, n) = (256usize, 64usize, 1000usize);
        let rows: Vec<usize> = (0..n).map(|i| (i * 37 + 11) % v).collect();
        let g: Vec<f32> = (0..n * d).map(|i| ((i * 2_654_435_761) as f32).sin()).collect();
        let serial = scatter_add_rows(&rows, &g, v, d, 1);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        for bands in 2..=5 {
            let banded = pool.install(|| scatter_add_rows(&rows, &g, v, d, bands));
            for (a, b) in serial.iter().zip(&banded) {
                assert_eq!(a.to_bits(), b.to_bits(), "bands={bands} diverged");
            }
        }
    }

    #[test]
    #[should_panic]
    fn embedding_rejects_out_of_range_ids() {
        let mut t = Tape::new();
        let table = t.leaf(Tensor::zeros([3, 2]));
        t.embedding(table, &[3], &[1]);
    }

    #[test]
    fn select_time_extracts_and_scatters() {
        let mut t = Tape::new();
        let data: Vec<f32> = (0..2 * 3 * 2).map(|i| i as f32).collect();
        let x = t.leaf(Tensor::from_vec([2, 3, 2], data));
        let y = t.select_time(x, 1);
        assert_eq!(t.value(y).data(), &[2.0, 3.0, 8.0, 9.0]);
        let s = t.sum_all(y);
        let g = t.backward(s);
        let dx = g.get(x).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn gather_positions_collects_and_scatters() {
        let mut t = Tape::new();
        let data: Vec<f32> = (0..2 * 3 * 2).map(|i| i as f32).collect();
        let x = t.leaf(Tensor::from_vec([2, 3, 2], data));
        // gather (0,1), (1,2) and a duplicate of (0,1)
        let y = t.gather_positions(x, &[(0, 1), (1, 2), (0, 1)]);
        assert_eq!(t.value(y).data(), &[2.0, 3.0, 10.0, 11.0, 2.0, 3.0]);
        let s = t.sum_all(y);
        let g = t.backward(s);
        let dx = g.get(x).unwrap();
        // the duplicated position accumulates gradient 2
        assert_eq!(dx.data()[2..4], [2.0, 2.0]);
        assert_eq!(dx.data()[10..12], [1.0, 1.0]);
    }

    #[test]
    fn last_time_is_final_position() {
        let mut t = Tape::new();
        let data: Vec<f32> = (0..3 * 2).map(|i| i as f32).collect(); // shape [1, 3, 2]
        let x = t.leaf(Tensor::from_vec([1, 3, 2], data));
        let y = t.last_time(x);
        assert_eq!(t.value(y).data(), &[4.0, 5.0]);
    }

    #[test]
    fn concat0_stacks_and_splits_gradient() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::from_vec([1, 2], vec![1.0, 2.0]));
        let b = t.leaf(Tensor::from_vec([2, 2], vec![3.0, 4.0, 5.0, 6.0]));
        let c = t.concat0(a, b);
        assert_eq!(t.value(c).shape().dims(), &[3, 2]);
        let s = t.sum_all(c);
        let g = t.backward(s);
        assert_eq!(g.get(a).unwrap().shape().dims(), &[1, 2]);
        assert_eq!(g.get(b).unwrap().shape().dims(), &[2, 2]);
    }

    #[test]
    fn concat_last_stacks_columns() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::from_vec([2, 2], vec![1.0, 2.0, 5.0, 6.0]));
        let b = t.leaf(Tensor::from_vec([2, 1], vec![3.0, 7.0]));
        let c = t.concat_last(a, b);
        assert_eq!(t.value(c).shape().dims(), &[2, 3]);
        assert_eq!(t.value(c).data(), &[1.0, 2.0, 3.0, 5.0, 6.0, 7.0]);
        let s = t.sum_all(c);
        let g = t.backward(s);
        assert_eq!(g.get(a).unwrap().shape().dims(), &[2, 2]);
        assert_eq!(g.get(b).unwrap().shape().dims(), &[2, 1]);
    }

    #[test]
    fn scale_rows_masks_rows() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let y = t.scale_rows_const(x, &[1.0, 0.0]);
        assert_eq!(t.value(y).data(), &[1.0, 2.0, 0.0, 0.0]);
        let s = t.sum_all(y);
        let g = t.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &[1.0, 1.0, 0.0, 0.0]);
    }
}
