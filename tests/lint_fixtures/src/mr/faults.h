#ifndef DWMAXERR_MR_FAULTS_H_
#define DWMAXERR_MR_FAULTS_H_
enum class TaskPhase { kMap, kReduce };
#endif  // DWMAXERR_MR_FAULTS_H_
