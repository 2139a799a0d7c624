//! CSR-file model: per-CSR access coverage and exception-path coverage.

use coverage::{CoverPointId, CoverageMap, CoverageSpace};
use riscv::CsrAddr;

/// CSR-file model.
///
/// Coverage points:
/// * per implemented CSR: read and write sites,
/// * unimplemented-CSR access, bucketed by address nibble (16 points),
/// * read-only-CSR write attempts,
/// * trap-CSR update events (exception taken, trap-vector redirect taken or
///   not),
/// * `mret` executed.
#[derive(Debug, Clone)]
pub struct CsrFileModel {
    // Indexed by position in `CsrAddr::IMPLEMENTED`.
    read_ids: Vec<CoverPointId>,
    write_ids: Vec<CoverPointId>,
    unimpl_buckets: Vec<CoverPointId>,
    read_only_write: CoverPointId,
    exception_taken: (CoverPointId, CoverPointId),
    redirect_taken: (CoverPointId, CoverPointId),
    mret_seen: CoverPointId,
}

impl CsrFileModel {
    /// Creates a CSR-file model and registers its coverage points.
    pub fn new(space: &mut CoverageSpace) -> CsrFileModel {
        let module = "csrfile";
        let mut read_ids = Vec::new();
        let mut write_ids = Vec::new();
        for csr in CsrAddr::IMPLEMENTED {
            let name = csr.name().expect("implemented CSRs are named");
            read_ids.push(space.register_branch(module, format!("read_{name}"), true));
            write_ids.push(space.register_branch(module, format!("write_{name}"), true));
        }
        let unimpl_buckets = (0..16)
            .map(|i| space.register_branch(module, format!("unimplemented_nibble{i:x}"), true))
            .collect();
        let read_only_write = space.register_branch(module, "read_only_write_attempt", true);
        let exception_taken = space.register_site(module, "exception_taken");
        let redirect_taken = space.register_site(module, "trap_redirect_taken");
        let mret_seen = space.register_branch(module, "mret_executed", true);
        CsrFileModel {
            read_ids,
            write_ids,
            unimpl_buckets,
            read_only_write,
            exception_taken,
            redirect_taken,
            mret_seen,
        }
    }

    /// No per-test state; present for interface symmetry.
    pub fn reset(&mut self) {}

    /// Records an access to a CSR address. `writes` indicates whether the
    /// instruction writes the CSR (after the `csrrs/csrrc x0` special cases).
    pub fn on_access(&self, csr: CsrAddr, writes: bool, map: &mut CoverageMap) {
        if let Some(index) = CsrAddr::IMPLEMENTED.iter().position(|c| *c == csr) {
            map.cover(self.read_ids[index]);
            if writes {
                if csr.is_read_only() {
                    map.cover(self.read_only_write);
                } else {
                    map.cover(self.write_ids[index]);
                }
            }
        } else {
            let bucket = (csr.value() >> 8) as usize & 0xf;
            map.cover(self.unimpl_buckets[bucket]);
        }
    }

    /// Records whether an instruction raised an exception, and whether the
    /// trap was redirected to a configured vector.
    pub fn on_exception(&self, redirected: bool, map: &mut CoverageMap) {
        let (taken, _) = self.exception_taken;
        map.cover(taken);
        let (redir_t, redir_f) = self.redirect_taken;
        map.cover(if redirected { redir_t } else { redir_f });
    }

    /// Records an instruction that committed without an exception.
    pub fn on_no_exception(&self, map: &mut CoverageMap) {
        let (_, not_taken) = self.exception_taken;
        map.cover(not_taken);
    }

    /// Records an `mret`.
    pub fn on_mret(&self, map: &mut CoverageMap) {
        map.cover(self.mret_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CoverageSpace, CsrFileModel) {
        let mut space = CoverageSpace::new("test");
        let csrfile = CsrFileModel::new(&mut space);
        (space, csrfile)
    }

    #[test]
    fn registers_expected_number_of_points() {
        let (space, _csr) = setup();
        // 17 CSRs × 2 + 16 unimplemented buckets + 1 read-only + 2 + 2 + 1.
        assert_eq!(space.len(), 17 * 2 + 16 + 1 + 2 + 2 + 1);
    }

    #[test]
    fn implemented_accesses_cover_read_and_write() {
        let (space, csrfile) = setup();
        let mut map = CoverageMap::for_space(&space);
        csrfile.on_access(CsrAddr::MSCRATCH, true, &mut map);
        csrfile.on_access(CsrAddr::MEPC, false, &mut map);
        assert!(map.is_covered(space.lookup("csrfile", "read_mscratch", true).unwrap()));
        assert!(map.is_covered(space.lookup("csrfile", "write_mscratch", true).unwrap()));
        assert!(map.is_covered(space.lookup("csrfile", "read_mepc", true).unwrap()));
        assert!(!map.is_covered(space.lookup("csrfile", "write_mepc", true).unwrap()));
    }

    #[test]
    fn read_only_writes_cover_the_violation_point() {
        let (space, csrfile) = setup();
        let mut map = CoverageMap::for_space(&space);
        csrfile.on_access(CsrAddr::MHARTID, true, &mut map);
        assert!(map.is_covered(space.lookup("csrfile", "read_only_write_attempt", true).unwrap()));
        assert!(!map.is_covered(space.lookup("csrfile", "write_mhartid", true).unwrap()));
    }

    #[test]
    fn unimplemented_accesses_bucket_by_address() {
        let (space, csrfile) = setup();
        let mut map = CoverageMap::for_space(&space);
        csrfile.on_access(CsrAddr::new(0x5c0), false, &mut map);
        csrfile.on_access(CsrAddr::new(0x7a0), false, &mut map);
        assert!(map.is_covered(space.lookup("csrfile", "unimplemented_nibble5", true).unwrap()));
        assert!(map.is_covered(space.lookup("csrfile", "unimplemented_nibble7", true).unwrap()));
        assert!(!map.is_covered(space.lookup("csrfile", "unimplemented_nibble1", true).unwrap()));
    }

    #[test]
    fn exception_and_mret_events() {
        let (space, csrfile) = setup();
        let mut map = CoverageMap::for_space(&space);
        csrfile.on_no_exception(&mut map);
        csrfile.on_exception(false, &mut map);
        csrfile.on_exception(true, &mut map);
        csrfile.on_mret(&mut map);
        assert!(map.is_covered(space.lookup("csrfile", "exception_taken", true).unwrap()));
        assert!(map.is_covered(space.lookup("csrfile", "exception_taken", false).unwrap()));
        assert!(map.is_covered(space.lookup("csrfile", "trap_redirect_taken", true).unwrap()));
        assert!(map.is_covered(space.lookup("csrfile", "trap_redirect_taken", false).unwrap()));
        assert!(map.is_covered(space.lookup("csrfile", "mret_executed", true).unwrap()));
    }

    #[test]
    fn every_implemented_csr_hits_its_named_points() {
        let (space, csrfile) = setup();
        let point = |site: String| space.lookup("csrfile", &site, true).unwrap();
        for csr in CsrAddr::IMPLEMENTED {
            let mut map = CoverageMap::for_space(&space);
            csrfile.on_access(csr, true, &mut map);
            // A write to a read-only CSR is a violation, not a write.
            let writable = !csr.is_read_only();
            for other in CsrAddr::IMPLEMENTED {
                let name = other.name().unwrap();
                let read = map.is_covered(point(format!("read_{name}")));
                assert_eq!(read, other == csr, "{csr:?}: {name}");
                let wrote = map.is_covered(point(format!("write_{name}")));
                assert_eq!(wrote, other == csr && writable, "{csr:?}: {name}");
            }
            let violation = map.is_covered(point("read_only_write_attempt".into()));
            assert_eq!(violation, !writable, "{csr:?}");
        }
    }
}
