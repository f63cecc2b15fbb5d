//! Minimal Well-Known Text (WKT) reader/writer.
//!
//! Supports the geometry kinds the paper's layers use: `POINT`,
//! `LINESTRING`, `POLYGON` and `MULTIPOLYGON`. Useful for loading test
//! fixtures and for dumping query results in a standard format.

use crate::overlay::MultiPolygon;
use crate::point::Point;
use crate::polygon::{Polygon, Ring};
use crate::polyline::Polyline;
use crate::GeomError;

/// Any geometry expressible in the supported WKT subset.
#[derive(Debug, Clone, PartialEq)]
pub enum WktGeometry {
    /// A single point.
    Point(Point),
    /// An open chain.
    LineString(Polyline),
    /// A polygon with optional holes.
    Polygon(Polygon),
    /// A set of polygons.
    MultiPolygon(MultiPolygon),
}

/// Serializes a point as WKT.
pub fn point_to_wkt(p: Point) -> String {
    format!("POINT ({} {})", p.x, p.y)
}

/// Serializes a polyline as WKT.
pub fn polyline_to_wkt(line: &Polyline) -> String {
    let coords: Vec<String> = line
        .vertices()
        .iter()
        .map(|p| format!("{} {}", p.x, p.y))
        .collect();
    format!("LINESTRING ({})", coords.join(", "))
}

fn ring_body(ring: &Ring) -> String {
    let mut coords: Vec<String> = ring
        .vertices()
        .iter()
        .map(|p| format!("{} {}", p.x, p.y))
        .collect();
    // WKT closes rings explicitly.
    if let Some(first) = ring.vertices().first() {
        coords.push(format!("{} {}", first.x, first.y));
    }
    format!("({})", coords.join(", "))
}

fn polygon_body(poly: &Polygon) -> String {
    let mut parts = vec![ring_body(poly.exterior())];
    parts.extend(poly.holes().iter().map(ring_body));
    format!("({})", parts.join(", "))
}

/// Serializes a polygon as WKT.
pub fn polygon_to_wkt(poly: &Polygon) -> String {
    format!("POLYGON {}", polygon_body(poly))
}

/// Parses one WKT geometry.
pub fn parse(input: &str) -> crate::Result<WktGeometry> {
    let mut p = Parser { rest: input.trim() };
    let geom = p.geometry()?;
    p.skip_ws();
    if !p.rest.is_empty() {
        return Err(GeomError::Wkt(format!("trailing input: {:?}", p.rest)));
    }
    Ok(geom)
}

struct Parser<'a> {
    rest: &'a str,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn keyword(&mut self) -> crate::Result<String> {
        self.skip_ws();
        let end = self
            .rest
            .find(|c: char| !c.is_ascii_alphabetic())
            .unwrap_or(self.rest.len());
        if end == 0 {
            return Err(GeomError::Wkt("expected a keyword".into()));
        }
        let kw = self.rest[..end].to_ascii_uppercase();
        self.rest = &self.rest[end..];
        Ok(kw)
    }

    fn expect(&mut self, ch: char) -> crate::Result<()> {
        self.skip_ws();
        if self.rest.starts_with(ch) {
            self.rest = &self.rest[ch.len_utf8()..];
            Ok(())
        } else {
            Err(GeomError::Wkt(format!(
                "expected '{ch}' at {:?}",
                truncate(self.rest)
            )))
        }
    }

    fn peek_is(&mut self, ch: char) -> bool {
        self.skip_ws();
        self.rest.starts_with(ch)
    }

    fn number(&mut self) -> crate::Result<f64> {
        self.skip_ws();
        let end = self
            .rest
            .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
            .unwrap_or(self.rest.len());
        if end == 0 {
            return Err(GeomError::Wkt(format!(
                "expected a number at {:?}",
                truncate(self.rest)
            )));
        }
        let n: f64 = self.rest[..end]
            .parse()
            .map_err(|_| GeomError::Wkt(format!("bad number {:?}", &self.rest[..end])))?;
        self.rest = &self.rest[end..];
        Ok(n)
    }

    fn coord(&mut self) -> crate::Result<Point> {
        let x = self.number()?;
        let y = self.number()?;
        Point::new(x, y).validate()
    }

    fn coord_list(&mut self) -> crate::Result<Vec<Point>> {
        self.expect('(')?;
        let mut pts = vec![self.coord()?];
        while self.peek_is(',') {
            self.expect(',')?;
            pts.push(self.coord()?);
        }
        self.expect(')')?;
        Ok(pts)
    }

    fn polygon_rings(&mut self) -> crate::Result<Polygon> {
        self.expect('(')?;
        let exterior = Ring::new(self.coord_list()?)?;
        let mut holes = Vec::new();
        while self.peek_is(',') {
            self.expect(',')?;
            holes.push(Ring::new(self.coord_list()?)?);
        }
        self.expect(')')?;
        Polygon::new(exterior, holes)
    }

    fn geometry(&mut self) -> crate::Result<WktGeometry> {
        let kw = self.keyword()?;
        match kw.as_str() {
            "POINT" => {
                self.expect('(')?;
                let p = self.coord()?;
                self.expect(')')?;
                Ok(WktGeometry::Point(p))
            }
            "LINESTRING" => Ok(WktGeometry::LineString(Polyline::new(self.coord_list()?)?)),
            "POLYGON" => Ok(WktGeometry::Polygon(self.polygon_rings()?)),
            "MULTIPOLYGON" => {
                self.skip_ws();
                if self.rest.to_ascii_uppercase().starts_with("EMPTY") {
                    self.rest = &self.rest[5..];
                    return Ok(WktGeometry::MultiPolygon(MultiPolygon::empty()));
                }
                self.expect('(')?;
                let mut polys = vec![self.polygon_rings()?];
                while self.peek_is(',') {
                    self.expect(',')?;
                    polys.push(self.polygon_rings()?);
                }
                self.expect(')')?;
                Ok(WktGeometry::MultiPolygon(MultiPolygon::new(polys)))
            }
            other => Err(GeomError::Wkt(format!(
                "unsupported geometry type {other:?}"
            ))),
        }
    }
}

fn truncate(s: &str) -> &str {
    // Byte 24 may fall inside a multibyte character (WKT is user input);
    // back off to the previous char boundary instead of panicking.
    let mut end = s.len().min(24);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    #[test]
    fn point_roundtrip() {
        let wkt = point_to_wkt(pt(1.5, -2.0));
        assert_eq!(wkt, "POINT (1.5 -2)");
        assert_eq!(parse(&wkt).unwrap(), WktGeometry::Point(pt(1.5, -2.0)));
    }

    #[test]
    fn linestring_roundtrip() {
        let line = Polyline::new(vec![pt(0.0, 0.0), pt(1.0, 1.0), pt(2.0, 0.0)]).unwrap();
        let wkt = polyline_to_wkt(&line);
        assert_eq!(wkt, "LINESTRING (0 0, 1 1, 2 0)");
        assert_eq!(parse(&wkt).unwrap(), WktGeometry::LineString(line));
    }

    #[test]
    fn polygon_roundtrip_with_hole() {
        let ext = Ring::new(vec![
            pt(0.0, 0.0),
            pt(10.0, 0.0),
            pt(10.0, 10.0),
            pt(0.0, 10.0),
        ])
        .unwrap();
        let hole = Ring::new(vec![pt(4.0, 4.0), pt(6.0, 4.0), pt(6.0, 6.0), pt(4.0, 6.0)]).unwrap();
        let poly = Polygon::new(ext, vec![hole]).unwrap();
        let wkt = polygon_to_wkt(&poly);
        match parse(&wkt).unwrap() {
            WktGeometry::Polygon(p) => {
                assert_eq!(p.area(), poly.area());
                assert_eq!(p.holes().len(), 1);
            }
            other => panic!("expected polygon, got {other:?}"),
        }
    }

    #[test]
    fn error_snippet_respects_char_boundaries() {
        // 24 bytes of garbage ending mid-multibyte-char must produce an
        // error, not a slicing panic, when the snippet is truncated.
        let input = format!("POINT ({}é x)", "x".repeat(20));
        assert!(parse(&input).is_err());
        assert!(parse("POINT (é é)").is_err());
    }

    #[test]
    fn multipolygon_roundtrip_and_empty() {
        let mp = MultiPolygon::new(vec![
            Polygon::rectangle(0.0, 0.0, 1.0, 1.0),
            Polygon::rectangle(2.0, 0.0, 3.0, 1.0),
        ]);
        let parts: Vec<String> = mp.polygons().iter().map(polygon_body).collect();
        let wkt = format!("MULTIPOLYGON ({})", parts.join(", "));
        match parse(&wkt).unwrap() {
            WktGeometry::MultiPolygon(m) => assert_eq!(m.area(), 2.0),
            other => panic!("expected multipolygon, got {other:?}"),
        }
        assert_eq!(
            parse("MULTIPOLYGON EMPTY").unwrap(),
            WktGeometry::MultiPolygon(MultiPolygon::empty())
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse("CIRCLE (0 0)").is_err());
        assert!(parse("POINT (1)").is_err());
        assert!(parse("POINT (1 2) junk").is_err());
        assert!(parse("POLYGON ((0 0, 1 0))").is_err()); // too few vertices
        assert!(parse("").is_err());
    }

    #[test]
    fn whitespace_and_case_tolerant() {
        assert_eq!(
            parse("  point ( 3   4 ) ").unwrap(),
            WktGeometry::Point(pt(3.0, 4.0))
        );
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(
            parse("POINT (1e3 -2.5E-2)").unwrap(),
            WktGeometry::Point(pt(1000.0, -0.025))
        );
    }
}
