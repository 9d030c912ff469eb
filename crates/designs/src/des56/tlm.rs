//! Unit tests of the DES56 TLM models, which the shared shells build. The
//! TLM-AT cases are the DES56 rows of the shell's table
//! (`crate::cycle::tests`).

mod tests {
    use super::super::algo::{self, KeySchedule};
    use super::super::rtl::{DES_KEY, RTL_SIGNALS};
    use super::super::workload::{DesBlock, DesWorkload};
    use crate::cycle::build_tlm_ca;
    use crate::cycle::tests as at;
    use crate::{DesignKind, Fault};
    use psl::SignalEnv;
    use tlmkit::TxTraceRecorder;

    fn one_block() -> DesWorkload {
        DesWorkload::new(vec![DesBlock {
            data: 0x0123456789ABCDEF,
            decrypt: false,
        }])
    }

    #[test]
    fn tlm_ca_produces_one_transaction_per_cycle() {
        let w = one_block();
        let mut built = build_tlm_ca(&w, Fault::None).unwrap();
        built.run();
        assert_eq!(built.bus.as_ref().unwrap().published(), w.total_edges());
    }

    #[test]
    fn tlm_ca_result_at_completion_edge() {
        let w = one_block();
        let mut built = build_tlm_ca(&w, Fault::None).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), RTL_SIGNALS);
        built.run();
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        // Request at edge 2 (t=20); rdy at t = (2+17)*10 = 190.
        let pos = trace.position_at_time(190).expect("transaction at 190ns");
        assert_eq!(trace.steps()[pos].signal("rdy"), Some(1));
        let ks = KeySchedule::new(DES_KEY);
        assert_eq!(
            trace.steps()[pos].signal("out"),
            Some(algo::encrypt(0x0123456789ABCDEF, &ks))
        );
    }

    #[test]
    fn tlm_at_loose_two_transactions_per_block() {
        at::assert_transactions_per_request(DesignKind::Des56, false);
    }

    #[test]
    fn tlm_at_strict_four_transactions_per_block() {
        at::assert_transactions_per_request(DesignKind::Des56, true);
    }

    #[test]
    fn tlm_at_read_lands_at_rtl_completion_time() {
        at::assert_read_at_rtl_completion(DesignKind::Des56);
    }

    #[test]
    fn tlm_at_latency_mutations_shift_read() {
        at::assert_latency_faults_shift_read(DesignKind::Des56);
    }

    #[test]
    fn tlm_at_drop_ready_publishes_no_completion() {
        at::assert_drop_ready(DesignKind::Des56);
    }

    #[test]
    fn tlm_at_drop_transaction_swallows_second_request() {
        at::assert_drop_transaction(DesignKind::Des56);
    }

    #[test]
    fn tlm_at_duplicate_transaction_completes_twice_and_swallows_busy_strobes() {
        at::assert_duplicate_transaction(DesignKind::Des56);
    }

    #[test]
    fn tlm_at_stuck_control_raises_rdy_at_the_request() {
        at::assert_stuck_control(DesignKind::Des56);
    }
}
