//! The gate-level SCAL datapath: self-dual adder, logic unit, shifter.

use scal_core::paper::ripple_adder;
use scal_netlist::{Circuit, GateKind, NodeId, Override};

/// Word width of the demonstration machine.
pub const WORD: usize = 8;

/// The CPU's combinational datapath as gate-level alternating networks.
///
/// * `adder` — the 8-bit ripple adder of self-dual full-adder slices
///   (Fig. 2.2): inputs `a0..a7, b0..b7, cin`, outputs `s0..s7, cout`.
///   Self-dual with **no added hardware** — the paper's flagship example.
/// * `logic` — the bitwise unit: inputs `a0..a7, b0..b7, phi`, outputs
///   `and0..7, or0..7, xor0..7`. Bitwise AND/OR are not self-dual, so each
///   bit is the Yamamoto extension — which collapses to `MAJ(a,b,φ)` for
///   AND and `MAJ(a,b,φ̄)` for OR — and XOR extends to the (self-dual)
///   three-input parity.
/// * shifting is pure wiring (self-dual trivially): performed by
///   [`Datapath::shift`], with the fill bit encoded as `φ` — the
///   alternating-logic representation of constant 0.
#[derive(Debug, Clone)]
pub struct Datapath {
    /// The ripple adder netlist.
    pub adder: Circuit,
    /// The logic-unit netlist.
    pub logic: Circuit,
    adder_overrides: Vec<Override>,
    logic_overrides: Vec<Override>,
}

impl Default for Datapath {
    fn default() -> Self {
        Self::new()
    }
}

impl Datapath {
    /// Builds the datapath netlists.
    #[must_use]
    pub fn new() -> Self {
        Datapath {
            adder: ripple_adder(WORD),
            logic: build_logic_unit(),
            adder_overrides: Vec::new(),
            logic_overrides: Vec::new(),
        }
    }

    /// Injects a persistent fault into the adder.
    pub fn fault_adder(&mut self, o: Override) {
        self.adder_overrides.push(o);
    }

    /// Injects a persistent fault into the logic unit.
    pub fn fault_logic(&mut self, o: Override) {
        self.logic_overrides.push(o);
    }

    /// Clears injected faults.
    pub fn clear_faults(&mut self) {
        self.adder_overrides.clear();
        self.logic_overrides.clear();
    }

    /// One-period adder evaluation: `(sum, carry)`.
    #[must_use]
    pub fn add_once(&self, a: u8, b: u8, cin: bool, complemented: bool) -> (u8, bool) {
        let ins = unit_inputs(a, b, cin ^ complemented, complemented);
        let out = self.adder.eval_with(&ins, &self.adder_overrides);
        let mut sum = 0u8;
        for (i, &bit) in out.iter().take(WORD).enumerate() {
            sum |= u8::from(bit) << i;
        }
        (sum, out[WORD])
    }

    /// One-period logic-unit evaluation: `(and, or, xor)` words. `phi` is
    /// the period clock (inputs must already be complemented when `phi`).
    #[must_use]
    pub fn logic_once(&self, a: u8, b: u8, phi: bool) -> (u8, u8, u8) {
        let ins = unit_inputs(a, b, phi, phi);
        let out = self.logic.eval_with(&ins, &self.logic_overrides);
        let word = |k: usize| -> u8 {
            let mut w = 0u8;
            for i in 0..WORD {
                w |= u8::from(out[k * WORD + i]) << i;
            }
            w
        };
        (word(0), word(1), word(2))
    }

    /// The self-dual shift of Fig. 7.4a, as wiring: `left` shifts toward the
    /// MSB. The fill bit is the period clock (`0` in the true period, `1` in
    /// the complemented one — the alternating encoding of constant 0).
    #[must_use]
    pub fn shift(value: u8, left: bool, phi: bool) -> u8 {
        let fill = u8::from(phi);
        if left {
            (value << 1) | fill
        } else {
            (value >> 1) | (fill << 7)
        }
    }
}

/// The input vector of either unit for one period: `a0..a7, b0..b7`,
/// complemented in the complemented period, then the unit's last input
/// (the adder's carry-in, or the logic unit's `φ`) as given.
pub(crate) fn unit_inputs(a: u8, b: u8, last: bool, complemented: bool) -> [bool; 2 * WORD + 1] {
    let (av, bv) = if complemented { (!a, !b) } else { (a, b) };
    let mut ins = [false; 2 * WORD + 1];
    for i in 0..WORD {
        ins[i] = (av >> i) & 1 == 1;
        ins[WORD + i] = (bv >> i) & 1 == 1;
    }
    ins[2 * WORD] = last;
    ins
}

fn build_logic_unit() -> Circuit {
    let mut c = Circuit::new();
    let a: Vec<NodeId> = (0..WORD).map(|i| c.input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..WORD).map(|i| c.input(format!("b{i}"))).collect();
    let phi = c.input("phi");
    let nphi = c.not(phi);
    // AND*: MAJ(a,b,φ) as two-level NAND.
    let maj = |c: &mut Circuit, x: NodeId, y: NodeId, z: NodeId| {
        let g1 = c.nand(&[x, y]);
        let g2 = c.nand(&[x, z]);
        let g3 = c.nand(&[y, z]);
        c.nand(&[g1, g2, g3])
    };
    let ands: Vec<NodeId> = (0..WORD).map(|i| maj(&mut c, a[i], b[i], phi)).collect();
    let ors: Vec<NodeId> = (0..WORD).map(|i| maj(&mut c, a[i], b[i], nphi)).collect();
    let xors: Vec<NodeId> = (0..WORD)
        .map(|i| c.gate(GateKind::Xor, &[a[i], b[i], phi]))
        .collect();
    for (i, &n) in ands.iter().enumerate() {
        c.mark_output(format!("and{i}"), n);
    }
    for (i, &n) in ors.iter().enumerate() {
        c.mark_output(format!("or{i}"), n);
    }
    for (i, &n) in xors.iter().enumerate() {
        c.mark_output(format!("xor{i}"), n);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_adds_in_both_periods() {
        let dp = Datapath::new();
        for &(a, b, cin) in &[
            (0u8, 0u8, false),
            (17, 5, false),
            (200, 100, true),
            (255, 1, false),
        ] {
            let (s1, c1) = dp.add_once(a, b, cin, false);
            let wide = u16::from(a) + u16::from(b) + u16::from(cin);
            assert_eq!(s1, wide as u8);
            assert_eq!(c1, wide > 0xFF);
            // Complemented period: results complement.
            let (s2, c2) = dp.add_once(a, b, cin, true);
            assert_eq!(s2, !s1);
            assert_eq!(c2, !c1);
        }
    }

    #[test]
    fn logic_unit_truth_and_alternation() {
        let dp = Datapath::new();
        for &(a, b) in &[(0u8, 0u8), (0xAA, 0x55), (0xF0, 0x3C), (255, 255)] {
            let (and1, or1, xor1) = dp.logic_once(a, b, false);
            assert_eq!(and1, a & b);
            assert_eq!(or1, a | b);
            assert_eq!(xor1, a ^ b);
            let (and2, or2, xor2) = dp.logic_once(a, b, true);
            assert_eq!(and2, !and1);
            assert_eq!(or2, !or1);
            assert_eq!(xor2, !xor1);
        }
    }

    #[test]
    fn logic_unit_outputs_are_self_dual() {
        let dp = Datapath::new();
        // Check bit 0 of each function as a truth table over its cone
        // variables: full 17-input tables are too wide, so verify the
        // alternation property exhaustively on sampled words instead.
        for a in [0u8, 1, 3, 0x80, 0xFF] {
            for b in [0u8, 2, 0x7F, 0xAA] {
                let p1 = dp.logic_once(a, b, false);
                let p2 = dp.logic_once(a, b, true);
                assert_eq!(p2.0, !p1.0);
                assert_eq!(p2.1, !p1.1);
                assert_eq!(p2.2, !p1.2);
            }
        }
    }

    #[test]
    fn shift_is_self_dual_wiring() {
        for v in [0u8, 1, 0x80, 0xAB] {
            for left in [false, true] {
                let p1 = Datapath::shift(v, left, false);
                let p2 = Datapath::shift(!v, left, true);
                assert_eq!(p2, !p1, "v={v:#x} left={left}");
            }
        }
        assert_eq!(Datapath::shift(0b0000_0001, true, false), 0b0000_0010);
        assert_eq!(Datapath::shift(0b1000_0000, false, false), 0b0100_0000);
    }

    #[test]
    fn injected_fault_breaks_alternation_detectably() {
        let mut dp = Datapath::new();
        // Stick the adder's first sum output.
        let s0 = dp.adder.outputs()[0].node;
        dp.fault_adder(Override::stem(s0, false));
        let (s1, _) = dp.add_once(3, 1, false, false);
        let (s2, _) = dp.add_once(3, 1, false, true);
        // sum bit 0 of 3+1=4 is 0; stuck-0 leaves period 1 correct but
        // period 2 (complemented, expects 1) wrong -> non-alternating bit.
        assert_eq!(s1 & 1, 0);
        assert_eq!(s2 & 1, 0, "bit 0 must fail to alternate");
        dp.clear_faults();
        let (s2, _) = dp.add_once(3, 1, false, true);
        assert_eq!(s2 & 1, 1);
    }
}
