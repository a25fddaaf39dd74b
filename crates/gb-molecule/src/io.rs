//! Minimal PQR and XYZ molecule I/O.
//!
//! PQR is the PDB-like format APBS and GB tools exchange: each `ATOM`
//! record carries x, y, z, charge, radius — exactly the attributes the GB
//! algorithms consume. The whitespace-delimited variant is parsed (the one
//! `pdb2pqr` emits). XYZ is supported for quick interchange; radii are
//! assigned from the element's Bondi value and charges default to zero.

use crate::atom::{Atom, Element};
use crate::molecule::Molecule;
use std::fmt::Write as _;

/// Errors produced by the parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line had fewer fields than the format requires.
    TooFewFields { line: usize },
    /// A numeric field failed to parse.
    BadNumber { line: usize, field: &'static str },
    /// A numeric field parsed but its value is unusable: a non-finite
    /// coordinate or charge, or a radius that is not positive.
    InvalidValue { line: usize, field: &'static str },
    /// The XYZ header count did not match the number of atom lines.
    CountMismatch { expected: usize, actual: usize },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::TooFewFields { line } => write!(f, "line {line}: too few fields"),
            ParseError::BadNumber { line, field } => {
                write!(f, "line {line}: bad number in field {field}")
            }
            ParseError::InvalidValue { line, field: "radius" } => {
                write!(f, "line {line}: radius must be finite and positive")
            }
            ParseError::InvalidValue { line, field } => {
                write!(f, "line {line}: field {field} must be finite")
            }
            ParseError::CountMismatch { expected, actual } => {
                write!(f, "xyz count mismatch: header says {expected}, found {actual}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one numeric field of line `line`, rejecting non-finite values
/// (`NaN`, `inf`), which `f64::from_str` accepts.
fn finite(s: &str, line: usize, field: &'static str) -> Result<f64, ParseError> {
    let v = s.parse::<f64>().map_err(|_| ParseError::BadNumber { line, field })?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(ParseError::InvalidValue { line, field })
    }
}

/// Parses whitespace-delimited PQR text.
///
/// Only `ATOM` / `HETATM` records are read; everything else is skipped.
/// Coordinates and charges must be finite and radii positive
/// ([`ParseError::InvalidValue`] otherwise).
/// Fields: `ATOM serial name resName resSeq x y z charge radius` (the
/// `chainID` column, when present, is tolerated by counting from the end:
/// the last two fields are always charge and radius, the three before them
/// x, y, z).
pub fn parse_pqr(name: &str, text: &str) -> Result<Molecule, ParseError> {
    let mut mol = Molecule::empty(name);
    for (lineno, line) in text.lines().enumerate() {
        let line_1 = lineno + 1;
        let mut fields: Vec<&str> = line.split_whitespace().collect();
        if fields.is_empty() {
            continue;
        }
        if fields[0] != "ATOM" && fields[0] != "HETATM" {
            continue;
        }
        if fields.len() < 9 {
            return Err(ParseError::TooFewFields { line: line_1 });
        }
        let radius_s = fields.pop().unwrap();
        let charge_s = fields.pop().unwrap();
        let z_s = fields.pop().unwrap();
        let y_s = fields.pop().unwrap();
        let x_s = fields.pop().unwrap();
        let x = finite(x_s, line_1, "x")?;
        let y = finite(y_s, line_1, "y")?;
        let z = finite(z_s, line_1, "z")?;
        let charge = finite(charge_s, line_1, "charge")?;
        let radius = finite(radius_s, line_1, "radius")?;
        if radius <= 0.0 {
            return Err(ParseError::InvalidValue { line: line_1, field: "radius" });
        }
        // atom-name field (index 2) leads with the element symbol
        let element = fields.get(2).map_or(Element::Other, |s| Element::from_symbol(s));
        mol.push(Atom { position: gb_geom::Vec3::new(x, y, z), radius, charge, element });
    }
    Ok(mol)
}

/// Writes a molecule as whitespace-delimited PQR.
pub fn write_pqr(mol: &Molecule) -> String {
    let mut out = String::with_capacity(mol.len() * 64);
    let _ = writeln!(out, "REMARK generated by gb-polarize: {}", mol.name);
    for (i, a) in mol.atoms().enumerate() {
        let _ = writeln!(
            out,
            "ATOM {serial} {el} MOL {res} {x:.4} {y:.4} {z:.4} {q:.4} {r:.4}",
            serial = i + 1,
            el = a.element.symbol(),
            res = 1,
            x = a.position.x,
            y = a.position.y,
            z = a.position.z,
            q = a.charge,
            r = a.radius,
        );
    }
    out
}

/// Parses XYZ text: first line atom count, second a comment, then
/// `element x y z` lines. Radii come from Bondi values; charges are zero.
/// Coordinates must be finite ([`ParseError::InvalidValue`] otherwise).
pub fn parse_xyz(name: &str, text: &str) -> Result<Molecule, ParseError> {
    let mut lines = text.lines().enumerate();
    let expected = match lines.next() {
        Some((_, first)) => first
            .trim()
            .parse::<usize>()
            .map_err(|_| ParseError::BadNumber { line: 1, field: "count" })?,
        None => 0,
    };
    let _comment = lines.next();
    let mut mol = Molecule::empty(name);
    for (lineno, line) in lines {
        let line_1 = lineno + 1;
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.is_empty() {
            continue;
        }
        if fields.len() < 4 {
            return Err(ParseError::TooFewFields { line: line_1 });
        }
        let element = Element::from_symbol(fields[0]);
        let x = finite(fields[1], line_1, "x")?;
        let y = finite(fields[2], line_1, "y")?;
        let z = finite(fields[3], line_1, "z")?;
        mol.push(Atom::of_element(element, gb_geom::Vec3::new(x, y, z), 0.0));
    }
    if mol.len() != expected {
        return Err(ParseError::CountMismatch { expected, actual: mol.len() });
    }
    Ok(mol)
}

/// Writes a molecule as XYZ.
pub fn write_xyz(mol: &Molecule) -> String {
    let mut out = String::with_capacity(mol.len() * 48 + 64);
    let _ = writeln!(out, "{}", mol.len());
    let _ = writeln!(out, "{}", mol.name);
    for a in mol.atoms() {
        let _ = writeln!(
            out,
            "{} {:.6} {:.6} {:.6}",
            a.element.symbol(),
            a.position.x,
            a.position.y,
            a.position.z
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{synthesize_protein, SyntheticParams};

    #[test]
    fn pqr_roundtrip() {
        let m = synthesize_protein(&SyntheticParams::with_atoms(120, 7));
        let text = write_pqr(&m);
        let back = parse_pqr(&m.name, &text).unwrap();
        assert_eq!(back.len(), m.len());
        for i in 0..m.len() {
            assert!((m.positions()[i] - back.positions()[i]).norm() < 1e-3);
            assert!((m.charges()[i] - back.charges()[i]).abs() < 1e-3);
            assert!((m.radii()[i] - back.radii()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn xyz_roundtrip_positions() {
        let m = synthesize_protein(&SyntheticParams::with_atoms(50, 3));
        let text = write_xyz(&m);
        let back = parse_xyz("x", &text).unwrap();
        assert_eq!(back.len(), m.len());
        for i in 0..m.len() {
            assert!((m.positions()[i] - back.positions()[i]).norm() < 1e-5);
            assert_eq!(m.elements()[i], back.elements()[i]);
        }
    }

    #[test]
    fn pqr_skips_non_atom_records() {
        let text = "REMARK hello\nATOM 1 C MOL 1 0.0 0.0 0.0 0.1 1.7\nTER\nEND\n";
        let m = parse_pqr("t", text).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.radii()[0], 1.7);
    }

    #[test]
    fn pqr_tolerates_chain_id_column() {
        // 10 fields: with chainID between resName and resSeq
        let text = "ATOM 1 N ALA A 1 1.0 2.0 3.0 -0.3 1.55\n";
        let m = parse_pqr("t", text).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.positions()[0], gb_geom::Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(m.charges()[0], -0.3);
    }

    #[test]
    fn pqr_error_on_short_line() {
        let text = "ATOM 1 C MOL 0.0 0.0\n";
        assert!(matches!(parse_pqr("t", text), Err(ParseError::TooFewFields { line: 1 })));
    }

    #[test]
    fn pqr_error_on_bad_number() {
        let text = "ATOM 1 C MOL 1 0.0 zzz 0.0 0.1 1.7\n";
        assert!(matches!(parse_pqr("t", text), Err(ParseError::BadNumber { line: 1, field: "y" })));
    }

    #[test]
    fn pqr_rejects_nan_coordinate() {
        let text = "ATOM 1 C MOL 1 0.0 NaN 0.0 0.1 1.7\n";
        assert_eq!(
            parse_pqr("t", text).unwrap_err(),
            ParseError::InvalidValue { line: 1, field: "y" }
        );
    }

    #[test]
    fn pqr_rejects_infinite_charge() {
        let text = "REMARK x\nATOM 1 C MOL 1 0.0 0.0 0.0 inf 1.7\n";
        assert_eq!(
            parse_pqr("t", text).unwrap_err(),
            ParseError::InvalidValue { line: 2, field: "charge" }
        );
    }

    #[test]
    fn pqr_rejects_non_positive_radius() {
        for r in ["-1.2", "0.0"] {
            let text = format!("ATOM 1 C MOL 1 0.0 0.0 0.0 0.1 {r}\n");
            assert_eq!(
                parse_pqr("t", &text).unwrap_err(),
                ParseError::InvalidValue { line: 1, field: "radius" },
                "radius {r}"
            );
        }
    }

    #[test]
    fn xyz_rejects_infinite_coordinate() {
        let text = "1\nc\nC 0.0 0.0 -inf\n";
        assert_eq!(
            parse_xyz("t", text).unwrap_err(),
            ParseError::InvalidValue { line: 3, field: "z" }
        );
    }

    #[test]
    fn xyz_count_mismatch() {
        let text = "3\ncomment\nC 0 0 0\n";
        assert!(matches!(
            parse_xyz("t", text),
            Err(ParseError::CountMismatch { expected: 3, actual: 1 })
        ));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(parse_pqr("t", "").unwrap().len(), 0);
        assert_eq!(parse_xyz("t", "0\nc\n").unwrap().len(), 0);
    }
}
