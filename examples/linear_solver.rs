//! A small structural-engineering flavoured linear solve: heat balance on
//! a rod (tridiagonal system), solved three ways — GEP Gaussian
//! elimination, GEP LU decomposition, and the cache-aware blocked
//! baseline — with residual checks.
//!
//! ```text
//! cargo run -p gep --release --example linear_solver
//! ```

use gep::matrix::Matrix;

fn main() {
    // Discretised 1-D heat equation: -u'' = f on n interior points,
    // Dirichlet boundaries. A is tridiagonal [-1, 2, -1] (SPD).
    let n = 200;
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            2.0
        } else if i.abs_diff(j) == 1 {
            -1.0
        } else {
            0.0
        }
    });
    let h = 1.0 / (n as f64 + 1.0);
    // Uniform heat source f = 1: the exact solution is u(x) = x(1-x)/2.
    let b: Vec<f64> = (0..n).map(|_| h * h).collect();

    // 1. GEP Gaussian elimination + back substitution.
    let u = gep::apps::gaussian::solve(&a, &b, 64);

    // Compare against the closed form at a few points.
    println!(" x      computed   exact");
    for frac in [0.25, 0.5, 0.75] {
        let i = ((n as f64 + 1.0) * frac) as usize - 1;
        let x = (i + 1) as f64 * h;
        let exact = x * (1.0 - x) / 2.0;
        println!("{x:.2}   {:9.6}  {exact:9.6}", u[i]);
        assert!((u[i] - exact).abs() < 1e-6, "discretisation agrees");
    }

    // 2. The same system through LU decomposition (packed in place).
    let m = gep::matrix::fit_side(n, 64);
    let mut packed = Matrix::from_fn(m, m, |i, j| {
        if i < n && j < n {
            a[(i, j)]
        } else if i == j {
            1.0
        } else {
            0.0
        }
    });
    gep::apps::lu::lu_in_place(&mut packed, 64);
    let (l, ufac) = gep::apps::lu::unpack(&packed);
    // Solve L y = b, then U x = y.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut acc = b[i];
        for j in 0..i {
            acc -= l[(i, j)] * y[j];
        }
        y[i] = acc; // unit diagonal
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = y[i];
        for j in i + 1..n {
            acc -= ufac[(i, j)] * x[j];
        }
        x[i] = acc / ufac[(i, i)];
    }
    let max_dev = u
        .iter()
        .zip(&x)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f64, f64::max);
    println!("GE solve vs LU solve: max deviation {max_dev:.2e}");
    assert!(max_dev < 1e-9);

    // 3. Residual check ||Ax - b||_inf for both.
    let res = gep::apps::reference::mat_vec(&a, &u)
        .iter()
        .zip(&b)
        .map(|(ax, bb)| (ax - bb).abs())
        .fold(0.0f64, f64::max);
    println!("residual ||Au - b||_inf = {res:.2e}");
    assert!(res < 1e-10);

    // 4. The cache-aware baseline factors the same matrix; its U agrees.
    let mut blocked = Matrix::from_fn(m, m, |i, j| {
        if i < n && j < n {
            a[(i, j)]
        } else if i == j {
            1.0
        } else {
            0.0
        }
    });
    gep::blaslike::lu_blocked(&mut blocked, 32);
    let mut max_u_dev = 0.0f64;
    for i in 0..n {
        for j in i..n {
            max_u_dev = max_u_dev.max((blocked[(i, j)] - packed[(i, j)]).abs());
        }
    }
    println!("GEP LU vs blocked LU: max |ΔU| = {max_u_dev:.2e}");
    assert!(max_u_dev < 1e-9);

    println!("linear_solver OK");
}
