//! Unit tests of the FIR TLM models, which the shared shells build. The
//! TLM-AT cases are the FIR rows of the shell's table
//! (`crate::cycle::tests`).

mod tests {
    use super::super::core::reference;
    use super::super::rtl::RTL_SIGNALS;
    use super::super::workload::FirWorkload;
    use crate::cycle::build_tlm_ca;
    use crate::cycle::tests as at;
    use crate::{DesignKind, Fault};
    use psl::SignalEnv;
    use tlmkit::TxTraceRecorder;

    #[test]
    fn ca_matches_rtl_completion_instants() {
        let w = FirWorkload::new(vec![512, 64]);
        let mut built = build_tlm_ca(&w, Fault::None).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), RTL_SIGNALS);
        built.run();
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        // First sample at edge 2 → result at edge 7 (t = 70).
        let pos = trace.position_at_time(70).expect("transaction at 70ns");
        assert_eq!(trace.steps()[pos].signal("out_valid"), Some(1));
        assert_eq!(
            trace.steps()[pos].signal("result"),
            Some(reference(&[512, 0, 0, 0]))
        );
    }

    #[test]
    fn at_two_transactions_per_sample_with_matching_values() {
        at::assert_transactions_per_request(DesignKind::Fir, false);
        at::assert_read_at_rtl_completion(DesignKind::Fir);
    }

    #[test]
    fn at_drop_sample_skips_completion_and_history() {
        at::assert_drop_transaction(DesignKind::Fir);
    }

    #[test]
    fn at_drop_valid_completes_without_the_strobe() {
        at::assert_drop_ready(DesignKind::Fir);
    }
}
